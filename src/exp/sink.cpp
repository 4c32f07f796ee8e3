#include "exp/sink.hpp"

#include <ostream>

#include "common/json.hpp"
#include "common/table.hpp"

namespace ucr::exp {

void CsvStreamSink::begin(const ExperimentPlan& plan) {
  spec_hash_ = plan.spec_hash;
  if (plan.shard.index == 0) {
    write_aggregate_header(*os_);
  }
}

void CsvStreamSink::emit(const CellInfo& cell, const AggregateResult& result) {
  (void)cell;
  write_aggregate_row(*os_, result, spec_hash_);
  if (flush_each_row_) os_->flush();
}

void CsvStreamSink::end() { os_->flush(); }

void JsonlSink::begin(const ExperimentPlan& plan) {
  spec_hash_ = plan.spec_hash;
}

void JsonlSink::emit(const CellInfo& cell, const AggregateResult& result) {
  std::string line = "{\"cell\":" + std::to_string(cell.index) +
                     ",\"spec_hash\":\"" + spec_hash_ + "\"";
  const auto append = [&](std::span<const ResultField> fields) {
    for (const ResultField& field : fields) {
      append_json_member(line, field, result,
                         [](double v) { return format_double(v, 6); });
    }
  };
  append(kIdentityFields);
  line += ",\"arrival\":\"" + json::escape(cell.arrival.label()) + "\"" +
          ",\"channel\":\"" + json::escape(cell.channel.label()) + "\"" +
          ",\"engine\":\"" + engine_mode_name(cell.engine) + "\"";
  append(kMeasureFields);
  line += "}\n";
  *os_ << line;
  if (flush_each_row_) os_->flush();
}

void JsonlSink::end() { os_->flush(); }

void MemorySink::emit(const CellInfo& cell, const AggregateResult& result) {
  cells_.push_back(cell);
  results_.push_back(result);
}

}  // namespace ucr::exp
