#include "preference/dominance_program.h"

#include <cstdlib>

#include "preference/composite.h"
#include "preference/dominance_simd.h"  // PREFSQL_HAVE_AVX2_BUILD

namespace prefsql {
namespace {

DomOp::Kind CompositeKind(PrefNode::Kind kind) {
  switch (kind) {
    case PrefNode::Kind::kPareto:
      return DomOp::Kind::kPareto;
    case PrefNode::Kind::kPrioritized:
      return DomOp::Kind::kPrioritized;
    case PrefNode::Kind::kIntersect:
      return DomOp::Kind::kIntersect;
    case PrefNode::Kind::kLeaf:
      break;
  }
  return DomOp::Kind::kLeafWeak;  // unreachable
}

// Emits the children of `node`, inlining same-kind composites: Pareto,
// prioritization and intersection are all associative, so Pareto(a,
// Pareto(b, c)) flattens to one three-child op — which is what lets a
// nested all-weak-order tree still hit the packed kernels.
void EmitChildren(const PrefNode& node, const std::vector<PrefLeaf>& leaves,
                  std::vector<DomOp>* ops, size_t depth, size_t* max_depth);

void EmitNode(const PrefNode& node, const std::vector<PrefLeaf>& leaves,
              std::vector<DomOp>* ops, size_t depth, size_t* max_depth) {
  if (node.kind == PrefNode::Kind::kLeaf) {
    DomOp op;
    const BasePreference* pref = leaves[node.leaf_slot].pref.get();
    op.kind = pref->CompareIsScoreOnly() ? DomOp::Kind::kLeafWeak
                                         : DomOp::Kind::kLeafGeneral;
    op.slot = static_cast<uint32_t>(node.leaf_slot);
    op.pref = pref;
    op.end = static_cast<uint32_t>(ops->size() + 1);
    ops->push_back(op);
    return;
  }
  if (depth + 1 > *max_depth) *max_depth = depth + 1;
  size_t self = ops->size();
  DomOp op;
  op.kind = CompositeKind(node.kind);
  ops->push_back(op);
  EmitChildren(node, leaves, ops, depth + 1, max_depth);
  (*ops)[self].end = static_cast<uint32_t>(ops->size());
}

void EmitChildren(const PrefNode& node, const std::vector<PrefLeaf>& leaves,
                  std::vector<DomOp>* ops, size_t depth, size_t* max_depth) {
  for (const auto& child : node.children) {
    if (child->kind == node.kind) {
      EmitChildren(*child, leaves, ops, depth, max_depth);
    } else {
      EmitNode(*child, leaves, ops, depth, max_depth);
    }
  }
}

Rel PackedParetoCompare(const double* a, const double* b, size_t n) {
  // Branch-light flag accumulation; the only early exit is the combined
  // incomparable case, which also ends most skyline-loop comparisons.
  bool better = false, worse = false;
  for (size_t i = 0; i < n; ++i) {
    better |= a[i] < b[i];
    worse |= a[i] > b[i];
    if (better & worse) return Rel::kIncomparable;
  }
  if (better) return Rel::kBetter;
  if (worse) return Rel::kWorse;
  return Rel::kEquivalent;
}

Rel PackedLexCompare(const double* a, const double* b, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (a[i] < b[i]) return Rel::kBetter;
    if (a[i] > b[i]) return Rel::kWorse;
  }
  return Rel::kEquivalent;
}

}  // namespace

const char* DominanceKernelToString(DominanceKernel k) {
  switch (k) {
    case DominanceKernel::kGeneric:
      return "generic";
    case DominanceKernel::kPackedPareto:
      return "packed-pareto";
    case DominanceKernel::kPackedLex:
      return "packed-lex";
  }
  return "?";
}

const char* SimdVariantToString(SimdVariant v) {
  switch (v) {
    case SimdVariant::kScalar:
      return "scalar";
    case SimdVariant::kUnrolled4:
      return "unrolled4";
    case SimdVariant::kAvx2:
      return "avx2";
  }
  return "?";
}

SimdVariant DispatchedSimdVariant() {
  static const SimdVariant v = [] {
#if PREFSQL_HAVE_AVX2_BUILD
    SimdVariant best = __builtin_cpu_supports("avx2") ? SimdVariant::kAvx2
                                                      : SimdVariant::kUnrolled4;
#else
    SimdVariant best = SimdVariant::kUnrolled4;
#endif
    const char* env = std::getenv("PREFSQL_SIMD");
    if (env != nullptr) {
      std::string s(env);
      if (s == "scalar" || s == "off") return SimdVariant::kScalar;
      if (s == "unrolled4") return SimdVariant::kUnrolled4;
      // "avx2" (or anything else) asks for the widest; clamp to supported.
    }
    return best;
  }();
  return v;
}

std::string DominanceKernelVariantName(DominanceKernel k, SimdVariant v) {
  std::string name = DominanceKernelToString(k);
  if (k == DominanceKernel::kGeneric) return name;
  return name + "-" + SimdVariantToString(v);
}

DominanceProgram DominanceProgram::Compile(
    const PrefNode& root, const std::vector<PrefLeaf>& leaves) {
  DominanceProgram out;
  out.num_leaves_ = leaves.size();
  EmitNode(root, leaves, &out.ops_, 0, &out.max_depth_);

  // Kernel selection: a root composite whose children are all weak-order
  // leaves covers every leaf (pre-order slots 0..L-1), so the packed kernels
  // can stream the full score slices.
  auto all_weak_under = [&](DomOp::Kind root_kind) {
    if (out.ops_.size() != leaves.size() + 1) return false;
    if (out.ops_[0].kind != root_kind) return false;
    for (size_t i = 1; i < out.ops_.size(); ++i) {
      if (out.ops_[i].kind != DomOp::Kind::kLeafWeak) return false;
    }
    return true;
  };
  if (out.ops_.size() == 1 && out.ops_[0].kind == DomOp::Kind::kLeafWeak) {
    // A single weak-order leaf is a degenerate Pareto over one dimension.
    out.kernel_ = DominanceKernel::kPackedPareto;
  } else if (all_weak_under(DomOp::Kind::kPareto)) {
    out.kernel_ = DominanceKernel::kPackedPareto;
  } else if (all_weak_under(DomOp::Kind::kPrioritized)) {
    out.kernel_ = DominanceKernel::kPackedLex;
  } else {
    out.kernel_ = DominanceKernel::kGeneric;
  }
  return out;
}

Rel DominanceProgram::Compare(const double* sa, const int32_t* ia,
                              const double* sb, const int32_t* ib) const {
  switch (kernel_) {
    case DominanceKernel::kPackedPareto:
      return PackedParetoCompare(sa, sb, num_leaves_);
    case DominanceKernel::kPackedLex:
      return PackedLexCompare(sa, sb, num_leaves_);
    case DominanceKernel::kGeneric:
      break;
  }
  return GenericCompare(sa, ia, sb, ib);
}

Rel DominanceProgram::GenericCompare(const double* sa, const int32_t* ia,
                                     const double* sb,
                                     const int32_t* ib) const {
  struct Frame {
    uint32_t end;
    DomOp::Kind kind;
    uint8_t state;
  };
  // Composite nesting is bounded by the parsed expression depth; 64 inline
  // frames cover any realistic PREFERRING clause (flattening removes
  // same-kind nesting entirely). Deeper trees — only reachable through
  // pathological paren nesting — spill to the heap rather than mis-answer.
  constexpr size_t kInlineDepth = 64;
  Frame inline_frames[kInlineDepth];
  std::vector<Frame> heap_frames;
  Frame* stack = inline_frames;
  if (max_depth_ > kInlineDepth) {
    heap_frames.resize(max_depth_);
    stack = heap_frames.data();
  }
  size_t depth = 0;

  constexpr uint8_t kSomeBetter = 1;   // Pareto
  constexpr uint8_t kSomeWorse = 2;    // Pareto
  constexpr uint8_t kAllBetter = 1;    // Intersect
  constexpr uint8_t kAllWorse = 2;     // Intersect
  constexpr uint8_t kAllEquivalent = 4;

  size_t pc = 0;
  Rel val = Rel::kEquivalent;
  bool have = false;  // `val` holds the result of the last finished subtree
  while (true) {
    if (!have) {
      const DomOp& op = ops_[pc];
      switch (op.kind) {
        case DomOp::Kind::kLeafWeak: {
          const double x = sa[op.slot];
          const double y = sb[op.slot];
          val = x < y ? Rel::kBetter : (y < x ? Rel::kWorse : Rel::kEquivalent);
          have = true;
          ++pc;
          break;
        }
        case DomOp::Kind::kLeafGeneral:
          val = op.pref->Compare(LeafKey{sa[op.slot], ia[op.slot]},
                                 LeafKey{sb[op.slot], ib[op.slot]});
          have = true;
          ++pc;
          break;
        default:
          stack[depth++] = Frame{
              op.end, op.kind,
              op.kind == DomOp::Kind::kIntersect
                  ? static_cast<uint8_t>(kAllBetter | kAllWorse |
                                         kAllEquivalent)
                  : uint8_t{0}};
          ++pc;
          break;
      }
      continue;
    }

    // Feed the finished child's relation into the innermost open frame.
    if (depth == 0) return val;
    Frame& f = stack[depth - 1];
    bool resolved = false;
    Rel out = Rel::kEquivalent;
    switch (f.kind) {
      case DomOp::Kind::kPareto:
        if (val == Rel::kIncomparable) {
          resolved = true;
          out = Rel::kIncomparable;
          break;
        }
        if (val == Rel::kBetter) f.state |= kSomeBetter;
        if (val == Rel::kWorse) f.state |= kSomeWorse;
        if (f.state == (kSomeBetter | kSomeWorse)) {
          resolved = true;
          out = Rel::kIncomparable;
        }
        break;
      case DomOp::Kind::kPrioritized:
        if (val != Rel::kEquivalent) {
          resolved = true;
          out = val;
        }
        break;
      case DomOp::Kind::kIntersect: {
        uint8_t s = f.state;
        if (val != Rel::kBetter) s &= static_cast<uint8_t>(~kAllBetter);
        if (val != Rel::kWorse) s &= static_cast<uint8_t>(~kAllWorse);
        if (val != Rel::kEquivalent) s &= static_cast<uint8_t>(~kAllEquivalent);
        f.state = s;
        if (s == 0) {
          resolved = true;
          out = Rel::kIncomparable;
        }
        break;
      }
      default:
        break;
    }
    if (resolved) {
      pc = f.end;  // short-circuit: skip the frame's remaining children
      --depth;
      val = out;
      continue;  // propagate upward (have stays true)
    }
    if (pc == f.end) {
      // All children consumed without an early decision: finalize.
      switch (f.kind) {
        case DomOp::Kind::kPareto:
          out = (f.state & kSomeBetter) ? Rel::kBetter
                : (f.state & kSomeWorse) ? Rel::kWorse
                                         : Rel::kEquivalent;
          break;
        case DomOp::Kind::kIntersect:
          out = (f.state & kAllEquivalent) ? Rel::kEquivalent
                : (f.state & kAllBetter)   ? Rel::kBetter
                : (f.state & kAllWorse)    ? Rel::kWorse
                                           : Rel::kIncomparable;
          break;
        default:  // kPrioritized: every component equivalent
          out = Rel::kEquivalent;
          break;
      }
      --depth;
      val = out;
      continue;
    }
    have = false;  // evaluate the frame's next child at pc
  }
}

}  // namespace prefsql
