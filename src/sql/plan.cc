#include "sql/plan.h"

#include <cstdio>

namespace xomatiq::sql {

std::string_view PlanKindName(PlanKind kind) {
  switch (kind) {
    case PlanKind::kSeqScan: return "SeqScan";
    case PlanKind::kParallelSeqScan: return "ParallelSeqScan";
    case PlanKind::kIndexScan: return "IndexScan";
    case PlanKind::kKeywordScan: return "KeywordScan";
    case PlanKind::kFilter: return "Filter";
    case PlanKind::kProject: return "Project";
    case PlanKind::kNestedLoopJoin: return "NestedLoopJoin";
    case PlanKind::kHashJoin: return "HashJoin";
    case PlanKind::kIndexNLJoin: return "IndexNLJoin";
    case PlanKind::kSort: return "Sort";
    case PlanKind::kLimit: return "Limit";
    case PlanKind::kAggregate: return "Aggregate";
    case PlanKind::kDistinct: return "Distinct";
  }
  return "?";
}

namespace {

// `actual rows=... batches=... time=...ms` suffix for EXPLAIN ANALYZE.
// One formatter serves both printers, so the plain and analyzed trees
// cannot drift: ToString always renders the node label through the switch
// below and appends this only when `analyze` is set.
std::string StatsSuffix(const PlanNode& node) {
  const OpStats& st = node.stats;
  if (st.fused) {
    std::string out = " (fused into parent";
    if (!st.partition_rows.empty()) {
      out += "; partitions=[";
      for (size_t i = 0; i < st.partition_rows.size(); ++i) {
        if (i > 0) out += ", ";
        out += std::to_string(st.partition_rows[i]);
      }
      out += "]";
    }
    return out + ")";
  }
  char ms[32];
  std::snprintf(ms, sizeof ms, "%.3f", static_cast<double>(st.ns) / 1e6);
  std::string out = " (actual rows=" + std::to_string(st.rows_out) +
                    " batches=" + std::to_string(st.batches) + " time=" +
                    ms + "ms";
  if (st.invocations > 1) {
    out += " loops=" + std::to_string(st.invocations);
  }
  if (!st.partition_rows.empty()) {
    out += " partitions=[";
    for (size_t i = 0; i < st.partition_rows.size(); ++i) {
      if (i > 0) out += ", ";
      out += std::to_string(st.partition_rows[i]);
    }
    out += "]";
  }
  if (st.morsels > 0) {
    out += " morsels=" + std::to_string(st.morsels);
  }
  return out + ")";
}

}  // namespace

void PlanNode::ClearStats() const {
  stats.Clear();
  for (const auto& child : children) child->ClearStats();
}

std::string PlanNode::ToString(int indent, bool analyze) const {
  std::string pad(static_cast<size_t>(indent) * 2, ' ');
  std::string out = pad + std::string(PlanKindName(kind));
  switch (kind) {
    case PlanKind::kSeqScan:
      out += " " + table + (alias != table ? " AS " + alias : "");
      break;
    case PlanKind::kParallelSeqScan:
      out += " " + table + (alias != table ? " AS " + alias : "") +
             " workers=" + std::to_string(parallel_degree);
      break;
    case PlanKind::kIndexScan: {
      out += " " + table + " USING " + index->def.name;
      if (!eq_key.empty()) {
        out += " key=(";
        for (size_t i = 0; i < eq_key.size(); ++i) {
          if (i > 0) out += ", ";
          out += eq_key[i].ToString();
        }
        out += ")";
      }
      if (lo.has_value()) {
        out += lo_inclusive ? " >= " : " > ";
        out += lo->ToString();
      }
      if (hi.has_value()) {
        out += hi_inclusive ? " <= " : " < ";
        out += hi->ToString();
      }
      break;
    }
    case PlanKind::kKeywordScan:
      out += " " + table + " USING " + index->def.name + " keyword='" +
             keyword + "'";
      break;
    case PlanKind::kFilter:
      out += " " + predicate->ToString();
      break;
    case PlanKind::kProject: {
      out += " [";
      for (size_t i = 0; i < project_exprs.size(); ++i) {
        if (i > 0) out += ", ";
        out += schema.column(i).name;
      }
      out += "]";
      break;
    }
    case PlanKind::kNestedLoopJoin:
      if (predicate) out += " on " + predicate->ToString();
      break;
    case PlanKind::kHashJoin: {
      out += " on ";
      for (size_t i = 0; i < left_keys.size(); ++i) {
        if (i > 0) out += " AND ";
        out += left_keys[i]->ToString() + " = " + right_keys[i]->ToString();
      }
      break;
    }
    case PlanKind::kIndexNLJoin: {
      out += " inner=" + table + " USING " + index->def.name + " key=(";
      for (size_t i = 0; i < outer_key_exprs.size(); ++i) {
        if (i > 0) out += ", ";
        out += outer_key_exprs[i]->ToString();
      }
      out += ")";
      break;
    }
    case PlanKind::kSort: {
      out += " by ";
      for (size_t i = 0; i < sort_keys.size(); ++i) {
        if (i > 0) out += ", ";
        out += sort_keys[i].expr->ToString();
        if (sort_keys[i].desc) out += " DESC";
      }
      break;
    }
    case PlanKind::kLimit:
      out += " " + std::to_string(limit);
      if (offset > 0) out += " OFFSET " + std::to_string(offset);
      break;
    case PlanKind::kAggregate: {
      out += " groups=" + std::to_string(group_exprs.size()) +
             " aggs=" + std::to_string(aggs.size());
      break;
    }
    case PlanKind::kDistinct:
      break;
  }
  // Parallel-annotated pipeline breakers advertise their planned degree
  // (ParallelSeqScan prints it inline above).
  if (parallel_degree >= 2 &&
      (kind == PlanKind::kHashJoin || kind == PlanKind::kSort ||
       kind == PlanKind::kDistinct)) {
    out += " workers=" + std::to_string(parallel_degree);
  }
  if (est_rows >= 0) {
    char est[64];
    std::snprintf(est, sizeof est, " (est rows=%.0f cost=%.0f)", est_rows,
                  est_cost);
    out += est;
  }
  if (analyze) out += StatsSuffix(*this);
  out += "\n";
  for (const auto& child : children) {
    out += child->ToString(indent + 1, analyze);
  }
  return out;
}

}  // namespace xomatiq::sql
