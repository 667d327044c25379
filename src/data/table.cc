#include "data/table.h"

#include <limits>
#include <map>
#include <unordered_set>

#include "util/check.h"
#include "util/csv.h"
#include "util/env.h"

namespace power {

const Record& Table::record(size_t i) const {
  POWER_CHECK(i < records_.size());
  return records_[i];
}

void Table::Add(Record record) {
  POWER_CHECK_MSG(record.values.size() == schema_.num_attributes(),
                  "record arity must match schema");
  record.id = static_cast<int>(records_.size());
  records_.push_back(std::move(record));
}

const std::string& Table::Value(size_t i, size_t k) const {
  POWER_CHECK(i < records_.size());
  POWER_CHECK(k < schema_.num_attributes());
  return records_[i].values[k];
}

size_t Table::CountEntities() const {
  std::unordered_set<int> entities;
  for (const auto& r : records_) entities.insert(r.entity_id);
  return entities.size();
}

size_t Table::CountMatchingPairs() const {
  std::map<int, size_t> cluster_sizes;
  for (const auto& r : records_) ++cluster_sizes[r.entity_id];
  size_t pairs = 0;
  for (const auto& [entity, size] : cluster_sizes) {
    pairs += size * (size - 1) / 2;
  }
  return pairs;
}

Table Table::WithAttributePrefix(size_t m) const {
  Table out(schema_.Prefix(m));
  for (const auto& r : records_) {
    Record copy;
    copy.entity_id = r.entity_id;
    copy.values.assign(r.values.begin(), r.values.begin() + m);
    out.Add(std::move(copy));
  }
  return out;
}

std::string Table::ToCsv() const {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> header = {"id", "entity_id"};
  for (const auto& attr : schema_.attributes()) header.push_back(attr.name);
  rows.push_back(std::move(header));
  for (const auto& r : records_) {
    std::vector<std::string> row = {std::to_string(r.id),
                                    std::to_string(r.entity_id)};
    for (const auto& v : r.values) row.push_back(v);
    rows.push_back(std::move(row));
  }
  return Csv::Serialize(rows);
}

bool Table::FromCsv(const std::string& text, Table* table) {
  std::vector<std::vector<std::string>> rows;
  if (!Csv::Parse(text, &rows) || rows.empty()) return false;
  const auto& header = rows[0];
  if (header.size() < 3 || header[0] != "id" || header[1] != "entity_id") {
    return false;
  }
  std::vector<Attribute> attrs;
  for (size_t k = 2; k < header.size(); ++k) {
    attrs.push_back({header[k], SimilarityFunction::kBigramJaccard});
  }
  *table = Table(Schema(std::move(attrs)));
  for (size_t i = 1; i < rows.size(); ++i) {
    const auto& row = rows[i];
    if (row.size() != header.size()) return false;
    Record r;
    // Full-token parse: a malformed entity id is a malformed file, not a
    // silent entity 0 (the old atoi behavior). So is one outside int's
    // range, which a narrowing cast would wrap onto another entity.
    std::optional<int64_t> id = ParseInt(row[1]);
    if (!id.has_value() || *id < std::numeric_limits<int>::min() ||
        *id > std::numeric_limits<int>::max()) {
      return false;
    }
    r.entity_id = static_cast<int>(*id);
    r.values.assign(row.begin() + 2, row.end());
    table->Add(std::move(r));
  }
  return true;
}

}  // namespace power
