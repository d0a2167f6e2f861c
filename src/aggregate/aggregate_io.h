#ifndef THEMIS_AGGREGATE_AGGREGATE_IO_H_
#define THEMIS_AGGREGATE_AGGREGATE_IO_H_

#include <string>

#include "aggregate/aggregate.h"

namespace themis::aggregate {

/// Serialization of published aggregates as CSV — the wire format a data
/// provider would actually publish (one file per GROUP BY COUNT(*) report):
///
///   o_st,d_st,count
///   FL,FL,2
///   FL,NY,1
///   ...
///
/// The header names the grouped attributes (resolved against `schema`) and
/// must end with a "count" column.

/// Writes `spec` to `path` using `schema` for attribute/value names.
Status WriteAggregateCsv(const AggregateSpec& spec,
                         const data::Schema& schema,
                         const std::string& path);

/// Reads an aggregate published as CSV. Attribute names must exist in
/// `schema`; group values are interned into the schema's domains (a
/// published report may legitimately mention values the sample lacks).
/// Every count must be a finite, non-negative number.
Result<AggregateSpec> ReadAggregateCsv(data::Schema& schema,
                                       const std::string& path);

}  // namespace themis::aggregate

#endif  // THEMIS_AGGREGATE_AGGREGATE_IO_H_
