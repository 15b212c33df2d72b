//===- tests/profile_test.cpp - Execution profiler tests ------------------===//
//
// Covers the source-attributed execution profiler end to end:
//
//  * ProfileSink: shape-keyed merging, pool-stat accumulation, JSON.
//  * Attribution: a real compile+run produces per-loop profiles whose
//    source lines, nesting, and trip counts match the program, and whose
//    inclusive counters obey the parent >= sum-of-children invariant.
//  * Thread identity: Entries/Trips/Instrs/Checks on a successful run
//    are bit-identical across thread counts (the stable contract from
//    Profile.h): every thread count runs the same lowered program, with
//    the passes on or off.
//  * Disabled mode: nothing is recorded and ExecStats are unchanged.
//  * Timeline: the Chrome trace JSON is well formed — timestamps
//    ascend, and every lane's B/E events form a balanced nesting.
//  * ThreadPool telemetry: tasks/jobs/idle counters and lane ids.
//
//===----------------------------------------------------------------------===//

#include "core/Compiler.h"
#include "driver/Driver.h"
#include "parallel/ThreadPool.h"
#include "support/ChromeTrace.h"
#include "support/Profile.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

using namespace hac;

namespace {

std::string readFile(const std::string &Path) {
  std::ifstream IS(Path);
  EXPECT_TRUE(IS.good()) << "cannot open " << Path;
  std::ostringstream SS;
  SS << IS.rdbuf();
  return SS.str();
}

std::string examplePath(const std::string &Name) {
  return std::string(HAC_EXAMPLES_DIR) + "/" + Name;
}

/// Resets both sinks around each test so tests compose in one process.
class ProfileTest : public ::testing::Test {
protected:
  void SetUp() override {
    ProfileSink::get().clear();
    ProfileSink::get().setEnabled(true);
    ChromeTraceSink::get().clear();
    ChromeTraceSink::get().setEnabled(false);
  }
  void TearDown() override {
    ProfileSink::get().setEnabled(false);
    ProfileSink::get().clear();
    ChromeTraceSink::get().setEnabled(false);
    ChromeTraceSink::get().clear();
  }
};

/// Runs \p Source at \p Threads threads and returns the recorded
/// programs, clearing the sink first so the snapshot holds this run only.
std::vector<ProgramProfile> profileRun(const std::string &Source,
                                       unsigned Threads, bool Optimize) {
  ProfileSink::get().clear();
  DiagnosticEngine Diags;
  std::optional<ProgramKind> Kind = classifyProgram(Source, Diags);
  EXPECT_TRUE(Kind.has_value()) << Diags.str();
  if (!Kind)
    return {};
  ProgramCompiler PC(*Kind);
  if (!PC.compile(Source)) {
    ADD_FAILURE() << PC.diags().str();
    return {};
  }
  EXPECT_TRUE(PC.thunkless()) << PC.fallbackReason();
  Executor Exec(PC.params());
  Exec.setNumThreads(Threads);
  Exec.setLIROptimize(Optimize);
  DoubleArray Out;
  std::string Err;
  EXPECT_TRUE(PC.run(Exec, Out, Err)) << Err;
  return ProfileSink::get().programsSnapshot();
}

//===--------------------------------------------------------------------===//
// ProfileSink merging
//===--------------------------------------------------------------------===//

ProgramProfile sampleProfile() {
  ProgramProfile P;
  P.Name = "a";
  P.Runs = 1;
  P.RootInstrs = 100;
  P.RootChecks = 10;
  P.RootNanos = 1000;
  ProfiledLoop L;
  L.Var = "i";
  L.Line = 3;
  L.Col = 5;
  L.Entries = 1;
  L.Trips = 8;
  L.Instrs = 40;
  L.Checks = 8;
  L.Nanos = 500;
  P.Loops.push_back(L);
  return P;
}

TEST_F(ProfileTest, RecordMergesSameShape) {
  ProfileSink &S = ProfileSink::get();
  S.record(sampleProfile());
  S.record(sampleProfile());
  auto Progs = S.programsSnapshot();
  ASSERT_EQ(Progs.size(), 1u);
  EXPECT_EQ(Progs[0].Runs, 2u);
  EXPECT_EQ(Progs[0].RootInstrs, 200u);
  ASSERT_EQ(Progs[0].Loops.size(), 1u);
  EXPECT_EQ(Progs[0].Loops[0].Trips, 16u);
  EXPECT_EQ(Progs[0].Loops[0].Entries, 2u);
}

TEST_F(ProfileTest, RecordAppendsDifferentShape) {
  ProfileSink &S = ProfileSink::get();
  S.record(sampleProfile());
  ProgramProfile Other = sampleProfile();
  Other.Loops[0].Line = 7; // same name, different source shape
  S.record(Other);
  EXPECT_EQ(S.programsSnapshot().size(), 2u);
}

TEST_F(ProfileTest, RecordKeepsParClassAndWitnessUpgrades) {
  ProfileSink &S = ProfileSink::get();
  S.record(sampleProfile());
  ProgramProfile P2 = sampleProfile();
  P2.Loops[0].ParClass = "doall";
  P2.Loops[0].Witness = "why not";
  S.record(P2);
  auto Progs = S.programsSnapshot();
  ASSERT_EQ(Progs.size(), 1u);
  EXPECT_EQ(Progs[0].Loops[0].ParClass, "doall");
  EXPECT_EQ(Progs[0].Loops[0].Witness, "why not");
}

TEST_F(ProfileTest, RecordPoolAccumulatesByWorker) {
  ProfileSink &S = ProfileSink::get();
  PoolUtilization U;
  U.Jobs = 2;
  U.Workers.resize(2);
  U.Workers[0].Tasks = 10;
  U.Workers[1].IdleNanos = 3;
  S.recordPool(U);
  S.recordPool(U);
  PoolUtilization Sum = S.poolSnapshot();
  EXPECT_EQ(Sum.Jobs, 4u);
  ASSERT_EQ(Sum.Workers.size(), 2u);
  EXPECT_EQ(Sum.Workers[0].Tasks, 20u);
  EXPECT_EQ(Sum.Workers[1].IdleNanos, 6u);
}

TEST_F(ProfileTest, WriteJsonIsWellFormed) {
  ProfileSink &S = ProfileSink::get();
  S.record(sampleProfile());
  std::ostringstream OS;
  S.writeJson(OS);
  std::string Json = OS.str();
  EXPECT_NE(Json.find("\"programs\""), std::string::npos);
  EXPECT_NE(Json.find("\"pool\""), std::string::npos);
  EXPECT_NE(Json.find("\"var\": \"i\""), std::string::npos);
  // Balanced braces outside strings (the sink quotes via jsonQuote).
  int Depth = 0;
  bool InString = false;
  for (size_t I = 0; I != Json.size(); ++I) {
    char C = Json[I];
    if (InString) {
      if (C == '\\')
        ++I;
      else if (C == '"')
        InString = false;
      continue;
    }
    if (C == '"')
      InString = true;
    else if (C == '{' || C == '[')
      ++Depth;
    else if (C == '}' || C == ']') {
      --Depth;
      EXPECT_GE(Depth, 0);
    }
  }
  EXPECT_EQ(Depth, 0);
  EXPECT_FALSE(InString);
}

//===--------------------------------------------------------------------===//
// Source attribution on a real run
//===--------------------------------------------------------------------===//

TEST_F(ProfileTest, WavefrontRunAttributesLoops) {
  auto Progs =
      profileRun(readFile(examplePath("wavefront.hac")), 1, true);
  ASSERT_EQ(Progs.size(), 1u);
  const ProgramProfile &P = Progs[0];
  EXPECT_EQ(P.Name, "a");
  EXPECT_EQ(P.Runs, 1u);
  ASSERT_FALSE(P.Loops.empty());

  // Every executed loop carries a source location and was entered.
  for (const ProfiledLoop &L : P.Loops) {
    EXPECT_GT(L.Line, 0u) << L.Var;
    EXPECT_GT(L.Entries, 0u) << L.Var;
    EXPECT_GE(L.Trips, L.Entries) << L.Var;
    EXPECT_EQ(L.ParClass, "serial") << "1-thread run must report serial";
  }

  // The 2D recurrence nest: one depth-1 loop under an "i" parent,
  // covering the 15x15 interior.
  const ProfiledLoop *Inner = nullptr;
  for (const ProfiledLoop &L : P.Loops)
    if (L.Depth == 1) {
      EXPECT_EQ(Inner, nullptr) << "expected a single depth-1 loop";
      Inner = &L;
    }
  ASSERT_NE(Inner, nullptr);
  EXPECT_EQ(Inner->Var, "j");
  EXPECT_EQ(Inner->Entries, 15u);
  EXPECT_EQ(Inner->Trips, 225u);
  ASSERT_GE(Inner->Parent, 0);
  ASSERT_LT(static_cast<size_t>(Inner->Parent), P.Loops.size());
  const ProfiledLoop &Outer = P.Loops[Inner->Parent];
  EXPECT_EQ(Outer.Var, "i");
  EXPECT_EQ(Outer.Depth, 0u);
  EXPECT_EQ(Outer.Trips, 15u);

  // Inclusive counters: a parent covers its children, the program root
  // covers its top-level loops.
  EXPECT_GT(Inner->Instrs, 0u);
  EXPECT_GE(Outer.Instrs, Inner->Instrs);
  EXPECT_GE(Outer.Nanos, Inner->Nanos);
  uint64_t TopInstrs = 0;
  for (const ProfiledLoop &L : P.Loops)
    if (L.Parent < 0)
      TopInstrs += L.Instrs;
  EXPECT_GE(P.RootInstrs, TopInstrs);
  EXPECT_GT(P.RootInstrs, 0u);
}

TEST_F(ProfileTest, ParallelRunReportsExecutedParClasses) {
  auto Progs =
      profileRun(readFile(examplePath("wavefront.hac")), 4, true);
  ASSERT_EQ(Progs.size(), 1u);
  std::set<std::string> Classes;
  for (const ProfiledLoop &L : Progs[0].Loops)
    Classes.insert(L.ParClass);
  EXPECT_TRUE(Classes.count("doall")) << "border passes run DOALL";
  EXPECT_TRUE(Classes.count("wave-outer"));
  EXPECT_TRUE(Classes.count("wave-inner"));
}

TEST_F(ProfileTest, SerialLoopCarriesWitness) {
  auto Progs = profileRun(
      "let n = 8 in letrec* a = array (1,n) "
      "([ i := 1.0 | i <- [1..1] ] ++ "
      " [ i := a!(i - 1) * 2.0 | i <- [2..n] ]) in a",
      4, true);
  ASSERT_EQ(Progs.size(), 1u);
  bool SawWitness = false;
  for (const ProfiledLoop &L : Progs[0].Loops)
    if (L.ParClass == "serial" && !L.Witness.empty()) {
      SawWitness = true;
      EXPECT_NE(L.Witness.find("carried dependence"), std::string::npos)
          << L.Witness;
    }
  EXPECT_TRUE(SawWitness);
}

//===--------------------------------------------------------------------===//
// Thread identity (the stable counter contract)
//===--------------------------------------------------------------------===//

void expectSameCounters(const std::vector<ProgramProfile> &A,
                        const std::vector<ProgramProfile> &B,
                        const std::string &What) {
  ASSERT_EQ(A.size(), B.size()) << What;
  for (size_t P = 0; P != A.size(); ++P) {
    ASSERT_EQ(A[P].Loops.size(), B[P].Loops.size()) << What;
    EXPECT_EQ(A[P].RootInstrs, B[P].RootInstrs) << What;
    EXPECT_EQ(A[P].RootChecks, B[P].RootChecks) << What;
    for (size_t I = 0; I != A[P].Loops.size(); ++I) {
      const ProfiledLoop &LA = A[P].Loops[I];
      const ProfiledLoop &LB = B[P].Loops[I];
      EXPECT_EQ(LA.Var, LB.Var) << What << " loop " << I;
      EXPECT_EQ(LA.Entries, LB.Entries) << What << " loop " << LA.Var;
      EXPECT_EQ(LA.Trips, LB.Trips) << What << " loop " << LA.Var;
      EXPECT_EQ(LA.Instrs, LB.Instrs) << What << " loop " << LA.Var;
      EXPECT_EQ(LA.Checks, LB.Checks) << What << " loop " << LA.Var;
    }
  }
}

TEST_F(ProfileTest, CountersIdenticalAcrossThreads) {
  // Every thread count executes the same LIR, with the passes on or
  // off, so all four counters must match bit for bit (Nanos naturally
  // varies). The three programs cover a wave pair whose outer loop
  // carries a strength-reduced row base, a DOALL whose carried slots
  // stride two target dimensions, and a backward inner loop.
  for (const char *Name :
       {"wavefront.hac", "coupled_scatter.hac", "backward_inner.hac"}) {
    const std::string Source = readFile(examplePath(Name));
    for (bool Optimize : {true, false}) {
      const std::string What =
          std::string(Name) + (Optimize ? " passes on" : " passes off");
      auto P1 = profileRun(Source, 1, Optimize);
      ASSERT_FALSE(P1.empty()) << What;
      EXPECT_GT(P1[0].RootInstrs, 0u) << What;
      for (unsigned Threads : {2u, 8u})
        expectSameCounters(P1, profileRun(Source, Threads, Optimize),
                           What + " j1 vs j" + std::to_string(Threads));
    }
  }
}

//===--------------------------------------------------------------------===//
// Disabled mode
//===--------------------------------------------------------------------===//

TEST_F(ProfileTest, DisabledRunRecordsNothingAndStatsMatch) {
  Compiler C;
  auto Compiled = C.compileArray(
      "let n = 12 in letrec* a = array (1,n) "
      "[ i := 2.0 * i | i <- [1..n] ] in a");
  ASSERT_TRUE(Compiled.has_value() && Compiled->Thunkless);

  // Profiled run first, to have reference ExecStats.
  Executor Ref(Compiled->Params);
  DoubleArray Out;
  std::string Err;
  ASSERT_TRUE(Compiled->evaluate(Out, Ref, Err)) << Err;
  ASSERT_FALSE(ProfileSink::get().empty());

  ProfileSink::get().setEnabled(false);
  ProfileSink::get().clear();
  Executor Plain(Compiled->Params);
  ASSERT_TRUE(Compiled->evaluate(Out, Plain, Err)) << Err;
  EXPECT_TRUE(ProfileSink::get().empty());
  EXPECT_EQ(Plain.stats().Stores, Ref.stats().Stores);
  EXPECT_EQ(Plain.stats().Loads, Ref.stats().Loads);
}

//===--------------------------------------------------------------------===//
// Timeline
//===--------------------------------------------------------------------===//

/// Extracts the value after \p Key up to the next ',' or '}' from one
/// JSON event line. The writer's output format is pinned (one event per
/// line, fixed key order), so this stays a string scan, not a parser.
std::string eventField(const std::string &Line, const std::string &Key) {
  size_t At = Line.find("\"" + Key + "\": ");
  if (At == std::string::npos)
    return "";
  At += Key.size() + 4;
  size_t End = At;
  int Depth = 0;
  bool InString = false;
  for (; End != Line.size(); ++End) {
    char C = Line[End];
    if (InString) {
      if (C == '\\')
        ++End;
      else if (C == '"')
        InString = false;
      continue;
    }
    if (C == '"')
      InString = true;
    else if (C == '{' || C == '[')
      ++Depth;
    else if (C == '}' || C == ']') {
      if (Depth == 0)
        break;
      --Depth;
    } else if (C == ',' && Depth == 0)
      break;
  }
  return Line.substr(At, End - At);
}

/// Parses the writer's "<micros>.<3-digit-frac>" timestamp into nanoseconds.
uint64_t parseTs(const std::string &Ts) {
  size_t Dot = Ts.find('.');
  EXPECT_NE(Dot, std::string::npos) << Ts;
  return std::stoull(Ts.substr(0, Dot)) * 1000 +
         std::stoull(Ts.substr(Dot + 1));
}

TEST_F(ProfileTest, TimelineJsonSortedAndBalanced) {
  ChromeTraceSink &T = ChromeTraceSink::get();
  T.setEnabled(true);

  Compiler C;
  auto Compiled = C.compileArray(readFile(examplePath("wavefront.hac")));
  ASSERT_TRUE(Compiled.has_value() && Compiled->Thunkless);
  Executor Exec(Compiled->Params);
  Exec.setNumThreads(4);
  DoubleArray Out;
  std::string Err;
  ASSERT_TRUE(Compiled->evaluate(Out, Exec, Err)) << Err;
  ASSERT_FALSE(T.empty());

  // The parallel run produced wave spans; fronts carry their cell count.
  std::set<std::string> Cats;
  for (const TimelineSpan &S : T.spansSnapshot()) {
    EXPECT_GE(S.EndNs, S.BeginNs) << S.Name;
    Cats.insert(S.Cat);
  }
  EXPECT_TRUE(Cats.count("wave"));
  EXPECT_TRUE(Cats.count("doall"));

  std::ostringstream OS;
  T.writeJson(OS);
  std::istringstream IS(OS.str());
  std::string Line;
  uint64_t LastTs = 0;
  bool SawTs = false;
  std::map<std::string, std::vector<std::string>> OpenByTid;
  std::set<std::string> NamedLanes;
  size_t Events = 0;
  while (std::getline(IS, Line)) {
    std::string Ph = eventField(Line, "ph");
    if (Ph.empty())
      continue; // array delimiters
    ++Events;
    std::string Tid = eventField(Line, "tid");
    EXPECT_FALSE(Tid.empty()) << Line;
    if (Ph == "\"M\"") {
      NamedLanes.insert(Tid);
      continue;
    }
    ASSERT_TRUE(Ph == "\"B\"" || Ph == "\"E\"") << Line;
    uint64_t Ts = parseTs(eventField(Line, "ts"));
    if (SawTs) {
      EXPECT_GE(Ts, LastTs) << "timestamps must ascend: " << Line;
    }
    LastTs = Ts;
    SawTs = true;
    std::string Name = eventField(Line, "name");
    if (Ph == "\"B\"") {
      OpenByTid[Tid].push_back(Name);
    } else {
      ASSERT_FALSE(OpenByTid[Tid].empty())
          << "E without open B on tid " << Tid << ": " << Line;
      EXPECT_EQ(OpenByTid[Tid].back(), Name)
          << "E must close the innermost open span on tid " << Tid;
      OpenByTid[Tid].pop_back();
    }
  }
  EXPECT_GT(Events, 0u);
  for (const auto &[Tid, Open] : OpenByTid)
    EXPECT_TRUE(Open.empty()) << Open.size() << " unclosed spans on tid "
                              << Tid;
  // Every lane that recorded spans got a thread_name metadata record.
  for (const auto &[Tid, Open] : OpenByTid)
    EXPECT_TRUE(NamedLanes.count(Tid)) << "unnamed lane " << Tid;
}

TEST_F(ProfileTest, TimelineImportsPipelinePhases) {
  TraceSink::get().clear();
  TraceSink::get().setEnabled(true);
  ChromeTraceSink &T = ChromeTraceSink::get();
  T.setEnabled(true);
  {
    TraceSpan Compile("compile");
    TraceSpan Parse("parse");
  }
  TraceSink::get().setEnabled(false);
  T.importTraceSink();
  TraceSink::get().clear();

  bool SawPhase = false;
  for (const TimelineSpan &S : T.spansSnapshot())
    if (S.Cat == "phase" && S.Tid == ChromeTraceSink::PipelineTid)
      SawPhase = true;
  EXPECT_TRUE(SawPhase);
  std::ostringstream OS;
  T.writeJson(OS);
  EXPECT_NE(OS.str().find("\"pipeline\""), std::string::npos);
}

TEST_F(ProfileTest, TimelineDisabledRecordsNothing) {
  ChromeTraceSink &T = ChromeTraceSink::get();
  ASSERT_FALSE(T.enabled());
  Compiler C;
  auto Compiled = C.compileArray(
      "let n = 16 in letrec* a = array (1,n) "
      "[ i := 1.0 * i | i <- [1..n] ] in a");
  ASSERT_TRUE(Compiled.has_value() && Compiled->Thunkless);
  Executor Exec(Compiled->Params);
  Exec.setNumThreads(4);
  DoubleArray Out;
  std::string Err;
  ASSERT_TRUE(Compiled->evaluate(Out, Exec, Err)) << Err;
  EXPECT_TRUE(T.empty());
}

//===--------------------------------------------------------------------===//
// ThreadPool utilization telemetry
//===--------------------------------------------------------------------===//

TEST(PoolStats, TasksAndJobsAreCounted) {
  par::ThreadPool Pool(4);
  Pool.resetStats();
  Pool.parallelFor(100, [](size_t) {});
  par::PoolStats S = Pool.stats();
  EXPECT_EQ(S.Jobs, 1u);
  EXPECT_EQ(S.Tasks, 100u);
  ASSERT_EQ(S.Workers.size(), 4u);
  uint64_t PerWorker = 0;
  for (const par::WorkerStats &W : S.Workers)
    PerWorker += W.Tasks;
  EXPECT_EQ(PerWorker, 100u);
  Pool.parallelFor(50, [](size_t) {});
  EXPECT_EQ(Pool.stats().Jobs, 2u);
  EXPECT_EQ(Pool.stats().Tasks, 150u);
}

TEST(PoolStats, SerialInlinePathChargesCaller) {
  par::ThreadPool Pool(1);
  Pool.resetStats();
  Pool.parallelFor(8, [](size_t) {});
  par::PoolStats S = Pool.stats();
  EXPECT_EQ(S.Jobs, 1u);
  EXPECT_EQ(S.Tasks, 8u);
  ASSERT_EQ(S.Workers.size(), 1u);
  EXPECT_EQ(S.Workers[0].Tasks, 8u);
}

TEST(PoolStats, EmptyJobIsNotCounted) {
  par::ThreadPool Pool(2);
  Pool.resetStats();
  Pool.parallelFor(0, [](size_t) {});
  EXPECT_EQ(Pool.stats().Jobs, 0u);
  EXPECT_EQ(Pool.stats().Tasks, 0u);
}

TEST(PoolStats, ResetZeroesEverything) {
  par::ThreadPool Pool(3);
  Pool.parallelFor(30, [](size_t) {});
  Pool.resetStats();
  par::PoolStats S = Pool.stats();
  EXPECT_EQ(S.Jobs, 0u);
  EXPECT_EQ(S.Tasks, 0u);
  for (const par::WorkerStats &W : S.Workers) {
    EXPECT_EQ(W.Tasks, 0u);
    EXPECT_EQ(W.IdleNanos, 0u);
  }
}

TEST(PoolStats, CurrentWorkerIsALaneId) {
  EXPECT_EQ(par::ThreadPool::currentWorker(), 0u);
  par::ThreadPool Pool(4);
  std::vector<std::atomic<unsigned>> Lane(64);
  Pool.parallelFor(64, [&](size_t I) {
    Lane[I] = par::ThreadPool::currentWorker();
  });
  for (size_t I = 0; I != 64; ++I)
    EXPECT_LT(Lane[I].load(), 4u) << "task " << I;
  EXPECT_EQ(par::ThreadPool::currentWorker(), 0u);
}

} // namespace
