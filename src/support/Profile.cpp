//===- support/Profile.cpp - Source-attributed execution profiles ---------===//
//
// Part of the hac project (Anderson & Hudak, PLDI 1990 reproduction).
//
//===----------------------------------------------------------------------===//

#include "Profile.h"
#include "Trace.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <sstream>

namespace hac {

ProfileSink::ProfileSink() {
  if (const char *Env = std::getenv("HAC_PROFILE")) {
    if (Env[0] != '\0' && !(Env[0] == '0' && Env[1] == '\0')) {
      Enabled = true;
      std::atexit(+[] {
        ProfileSink &S = ProfileSink::get();
        if (S.enabled() && !S.empty())
          S.printTable(std::cerr);
      });
    }
  }
}

ProfileSink &ProfileSink::get() {
  // Leaked: the atexit dump must outlive static destructors in other TUs.
  static ProfileSink *S = new ProfileSink();
  return *S;
}

void ProfileSink::clear() {
  std::lock_guard<std::mutex> Lock(Mutex);
  Programs.clear();
  Pool = PoolUtilization();
}

bool ProfileSink::empty() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Programs.empty() && Pool.Jobs == 0;
}

/// Two profiles describe the same lowered program when every loop's
/// static identity (variable, location, nesting) lines up.
static bool sameShape(const ProgramProfile &A, const ProgramProfile &B) {
  if (A.Name != B.Name || A.Tier != B.Tier || A.Loops.size() != B.Loops.size())
    return false;
  for (size_t I = 0; I < A.Loops.size(); ++I) {
    const ProfiledLoop &L = A.Loops[I], &R = B.Loops[I];
    if (L.Var != R.Var || L.Line != R.Line || L.Col != R.Col ||
        L.Parent != R.Parent)
      return false;
  }
  return true;
}

void ProfileSink::record(const ProgramProfile &P) {
  std::lock_guard<std::mutex> Lock(Mutex);
  for (ProgramProfile &Have : Programs) {
    if (!sameShape(Have, P))
      continue;
    Have.Runs += P.Runs;
    Have.RootInstrs += P.RootInstrs;
    Have.RootChecks += P.RootChecks;
    Have.RootNanos += P.RootNanos;
    for (size_t I = 0; I < P.Loops.size(); ++I) {
      ProfiledLoop &L = Have.Loops[I];
      const ProfiledLoop &R = P.Loops[I];
      L.Entries += R.Entries;
      L.Trips += R.Trips;
      L.Instrs += R.Instrs;
      L.Checks += R.Checks;
      L.Nanos += R.Nanos;
      // The par class can differ between runs (e.g. a -j1 run after a
      // -j8 run); keep the most recent non-serial answer.
      if (R.ParClass != "serial")
        L.ParClass = R.ParClass;
      if (!R.Witness.empty())
        L.Witness = R.Witness;
    }
    return;
  }
  Programs.push_back(P);
}

void ProfileSink::recordPool(const PoolUtilization &U) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Pool.Jobs += U.Jobs;
  if (Pool.Workers.size() < U.Workers.size())
    Pool.Workers.resize(U.Workers.size());
  for (size_t I = 0; I < U.Workers.size(); ++I) {
    Pool.Workers[I].Tasks += U.Workers[I].Tasks;
    Pool.Workers[I].IdleNanos += U.Workers[I].IdleNanos;
  }
}

std::vector<ProgramProfile> ProfileSink::programsSnapshot() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Programs;
}

PoolUtilization ProfileSink::poolSnapshot() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Pool;
}

namespace {

/// One row of the ranked table: a loop plus where it came from.
struct Row {
  const ProgramProfile *Prog;
  const ProfiledLoop *Loop;
};

std::string locStr(const ProfiledLoop &L) {
  if (L.Line == 0)
    return "<unknown>";
  return std::to_string(L.Line) + ":" + std::to_string(L.Col);
}

std::string msStr(uint64_t Nanos) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.3f", static_cast<double>(Nanos) / 1e6);
  return Buf;
}

std::string pctStr(uint64_t Part, uint64_t Whole) {
  if (Whole == 0)
    return "-";
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.1f%%",
                100.0 * static_cast<double>(Part) / static_cast<double>(Whole));
  return Buf;
}

} // namespace

void ProfileSink::printTable(std::ostream &OS) const {
  std::vector<ProgramProfile> Progs = programsSnapshot();
  PoolUtilization PU = poolSnapshot();

  uint64_t TotalNanos = 0;
  std::vector<Row> Rows;
  for (const ProgramProfile &P : Progs) {
    TotalNanos += P.RootNanos;
    for (const ProfiledLoop &L : P.Loops)
      Rows.push_back({&P, &L});
  }
  std::stable_sort(Rows.begin(), Rows.end(), [](const Row &A, const Row &B) {
    return A.Loop->Nanos > B.Loop->Nanos;
  });

  OS << "=== profile ===\n";
  if (Rows.empty()) {
    OS << "  (no LIR loops executed)\n";
  } else {
    OS << "  " << std::left << std::setw(4) << "#" << std::setw(10)
       << "time(ms)" << std::setw(8) << "%total" << std::right << std::setw(12)
       << "trips" << std::setw(14) << "instrs" << std::setw(12) << "checks"
       << "  " << std::left << std::setw(12) << "par" << std::setw(10) << "loc"
       << "target.var\n";
    int N = 0;
    for (const Row &R : Rows) {
      const ProfiledLoop &L = *R.Loop;
      OS << "  " << std::left << std::setw(4) << ++N << std::setw(10)
         << msStr(L.Nanos) << std::setw(8) << pctStr(L.Nanos, TotalNanos)
         << std::right << std::setw(12) << L.Trips << std::setw(14) << L.Instrs
         << std::setw(12) << L.Checks << "  " << std::left << std::setw(12)
         << L.ParClass << std::setw(10) << locStr(L) << R.Prog->Name << "."
         << L.Var;
      for (uint32_t D = 0; D < L.Depth; ++D)
        OS << "'"; // tick marks distinguish same-named nested loops
      OS << "\n";
      if (L.ParClass == "serial" && !L.Witness.empty())
        OS << "  " << std::setw(4) << "" << "HAC008: " << L.Witness << "\n";
    }
  }

  OS << "  --\n";
  for (const ProgramProfile &P : Progs) {
    OS << "  " << P.Name << ": " << P.Runs << " run(s), "
       << msStr(P.RootNanos) << " ms, " << P.RootInstrs << " instrs, "
       << P.RootChecks << " checks";
    // Mark rows a JIT kernel executed; interpreter rows keep the format
    // the smoke tests and goldens have always seen.
    if (P.Tier != "interp")
      OS << " [" << P.Tier << "]";
    OS << "\n";
  }

  if (PU.Jobs != 0) {
    OS << "  -- thread pool --\n";
    OS << "  jobs " << PU.Jobs << "\n";
    for (size_t I = 0; I < PU.Workers.size(); ++I) {
      const PoolUtilization::Worker &W = PU.Workers[I];
      OS << "  worker " << I << ": " << W.Tasks << " tasks, "
         << msStr(W.IdleNanos) << " ms idle\n";
    }
  }
  OS << "profiled " << Rows.size() << " loops in " << Progs.size()
     << " program(s)\n";
}

void ProfileSink::writeJson(std::ostream &OS, unsigned Indent) const {
  std::vector<ProgramProfile> Progs = programsSnapshot();
  PoolUtilization PU = poolSnapshot();
  std::string Pad(Indent, ' ');

  OS << "{\n" << Pad << "  \"programs\": [";
  for (size_t PI = 0; PI < Progs.size(); ++PI) {
    const ProgramProfile &P = Progs[PI];
    OS << (PI ? ",\n" : "\n") << Pad << "    {\"name\": " << jsonQuote(P.Name)
       << ", \"tier\": " << jsonQuote(P.Tier)
       << ", \"runs\": " << P.Runs << ", \"root_instrs\": " << P.RootInstrs
       << ", \"root_checks\": " << P.RootChecks
       << ", \"root_nanos\": " << P.RootNanos << ", \"loops\": [";
    for (size_t LI = 0; LI < P.Loops.size(); ++LI) {
      const ProfiledLoop &L = P.Loops[LI];
      OS << (LI ? ",\n" : "\n") << Pad << "      {\"var\": "
         << jsonQuote(L.Var) << ", \"line\": " << L.Line
         << ", \"col\": " << L.Col << ", \"depth\": " << L.Depth
         << ", \"parent\": " << L.Parent
         << ", \"par\": " << jsonQuote(L.ParClass)
         << ", \"witness\": " << jsonQuote(L.Witness)
         << ", \"entries\": " << L.Entries << ", \"trips\": " << L.Trips
         << ", \"instrs\": " << L.Instrs << ", \"checks\": " << L.Checks
         << ", \"nanos\": " << L.Nanos << "}";
    }
    OS << (P.Loops.empty() ? "]" : "\n" + Pad + "    ]") << "}";
  }
  OS << (Progs.empty() ? "]" : "\n" + Pad + "  ]") << ",\n";

  OS << Pad << "  \"pool\": {\"jobs\": " << PU.Jobs << ", \"workers\": [";
  for (size_t I = 0; I < PU.Workers.size(); ++I) {
    const PoolUtilization::Worker &W = PU.Workers[I];
    OS << (I ? ", " : "") << "{\"tasks\": " << W.Tasks
       << ", \"idle_nanos\": " << W.IdleNanos << "}";
  }
  OS << "]}\n" << Pad << "}";
}

} // namespace hac
