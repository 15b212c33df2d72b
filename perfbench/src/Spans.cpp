//===- perfbench/src/Spans.cpp - In-memory span recorder ------------------===//

#include "Spans.h"

#include <cstring>

using namespace perfbench;

Tracer::Scope::Scope(Tracer &Tr, const char *Name, uint32_t Op) {
  if (!Tr.Recording)
    return;
  T = &Tr;
  Idx = static_cast<int32_t>(T->Spans.size());
  Span S;
  S.Name = Name;
  S.Parent = T->Open;
  S.Op = Op;
  T->Spans.push_back(S);
  T->Open = Idx;
  T->Spans.back().Start = nowNanos();
}

Tracer::Scope::~Scope() {
  if (!T)
    return;
  Span &S = T->Spans[Idx];
  S.End = nowNanos();
  T->Open = S.Parent;
}

std::vector<double> Tracer::durations(const std::string &Name,
                                      const char *Parent) const {
  std::vector<double> D;
  for (const Span &S : Spans)
    if (Name == S.Name &&
        (!Parent ||
         (S.Parent >= 0 && std::strcmp(Spans[S.Parent].Name, Parent) == 0)))
      D.push_back(static_cast<double>(S.End - S.Start));
  return D;
}

std::map<std::string, uint64_t> Tracer::selfTimeByLayer() const {
  std::vector<uint64_t> Covered(Spans.size(), 0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Covered[S.Parent] += S.End - S.Start;
  std::map<std::string, uint64_t> Self;
  for (size_t I = 0; I != Spans.size(); ++I) {
    const char *Dot = std::strchr(Spans[I].Name, '.');
    std::string Layer = Dot ? std::string(Spans[I].Name, Dot) : Spans[I].Name;
    Self[Layer] += Spans[I].End - Spans[I].Start - Covered[I];
  }
  return Self;
}

void Tracer::writeJson(std::ostream &OS) const {
  OS << "{\"fields\": [\"name\", \"start_ns\", \"end_ns\", \"parent\", "
        "\"op\"],\n \"spans\": [";
  const uint64_t Base = Spans.empty() ? 0 : Spans.front().Start;
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    OS << (I ? ",\n  " : "\n  ") << "[\"" << S.Name << "\", "
       << S.Start - Base << ", " << S.End - Base << ", " << S.Parent << ", "
       << S.Op << "]";
  }
  OS << "\n ],\n \"self_ns_by_layer\": {";
  bool First = true;
  for (const auto &[Layer, Ns] : selfTimeByLayer()) {
    OS << (First ? "" : ", ") << "\"" << Layer << "\": " << Ns;
    First = false;
  }
  OS << "}}\n";
}
