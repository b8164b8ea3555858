#include "engine/vectorized_eval.h"

#include <map>
#include <string>
#include <utility>

#include "common/logging.h"
#include "engine/verdict_store.h"
#include "expr/eval.h"

namespace sqlts {

VectorizedPlanEval::~VectorizedPlanEval() = default;

std::unique_ptr<VectorizedPlanEval> VectorizedPlanEval::Create(
    const PatternPlan& plan, const Schema& schema) {
  auto out = std::unique_ptr<VectorizedPlanEval>(new VectorizedPlanEval());
  out->elements_.resize(plan.predicates.size());
  // Dedup by rendered form: identical conjuncts (common across the
  // elements of one pattern, e.g. symmetric halves of a double bottom)
  // share one kernel and one verdict-store slot.
  std::map<std::string, std::pair<const PredicateKernel*, int>> dedup;
  bool any = false;
  for (size_t j = 1; j < plan.predicates.size(); ++j) {
    if (plan.predicates[j] == nullptr) continue;
    std::vector<ExprPtr> conjuncts;
    FlattenConjuncts(plan.predicates[j], &conjuncts);
    for (ExprPtr& c : conjuncts) {
      Conjunct entry;
      entry.expr = c;
      std::string key = c->ToString();
      auto it = dedup.find(key);
      if (it != dedup.end()) {
        entry.kernel = it->second.first;
        entry.cache_slot = it->second.second;
      } else {
        auto kernel = PredicateKernel::Compile(c, schema);
        if (kernel != nullptr) {
          entry.kernel = kernel.get();
          entry.cache_slot = static_cast<int>(out->kernels_.size());
          out->kernels_.push_back(std::move(kernel));
        }
        dedup.emplace(std::move(key),
                      std::make_pair(entry.kernel, entry.cache_slot));
      }
      if (entry.kernel != nullptr) any = true;
      out->elements_[j].push_back(std::move(entry));
    }
  }
  if (!any) return nullptr;
  return out;
}

/// Per-matcher evaluator: kernel verdicts from the matcher's own
/// VerdictStore, the interpreter for everything else.  Single-threaded
/// by contract.  Defined at namespace scope (not anonymous) so the
/// header's friend declaration names this exact class.
class VectorizedElementEvaluator final : public ElementEvaluator {
 public:
  // Rings hold up to 2^16 positions, the multi-query batch cap.
  explicit VectorizedElementEvaluator(const VectorizedPlanEval* plan)
      : plan_(plan), store_(int64_t{1} << 16) {}

  bool Test(int j, const SequenceView& seq, int64_t pos,
            const std::vector<GroupSpan>& spans, int64_t abs_pos) override {
    const auto& conjuncts = plan_->elements_[j];
    SQLTS_CHECK(!conjuncts.empty()) << "Test on TRUE element " << j;
    const int lane = static_cast<int>(abs_pos % kKernelBlock);
    for (const auto& c : conjuncts) {
      bool sat;
      if (c.kernel != nullptr) {
        // The view's base (abs_pos - pos) is the lowest position this
        // matcher can still test.
        VerdictStore::Block& b =
            store_.At(c.cache_slot, abs_pos, abs_pos - pos);
        if (!b.Known(lane)) {
          store_.Fill(&b, *c.kernel, seq, pos, abs_pos, nullptr);
        }
        sat = b.True(lane);
      } else {
        EvalContext ctx;
        ctx.seq = &seq;
        ctx.pos = pos;
        ctx.spans = &spans;
        sat = EvalPredicate(*c.expr, ctx);
      }
      if (!sat) return false;  // conjunction: first non-TRUE decides
    }
    return true;
  }

 private:
  const VectorizedPlanEval* plan_;
  VerdictStore store_;
};

std::unique_ptr<ElementEvaluator> VectorizedPlanEval::MakeEvaluator() const {
  return std::make_unique<VectorizedElementEvaluator>(this);
}

}  // namespace sqlts
