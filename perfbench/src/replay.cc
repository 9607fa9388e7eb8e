#include "replay.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "compressors/registry.h"
#include "core/analyzer.h"
#include "core/chunker.h"
#include "core/container.h"
#include "core/isobar.h"
#include "core/partitioner.h"
#include "linearize/transpose.h"
#include "util/crc32c.h"

namespace perfbench {
namespace {

namespace container = isobar::container;
using isobar::Linearization;

uint64_t FullMask(size_t width) {
  return width >= 64 ? ~0ull : ((1ull << width) - 1);
}

/// One chunk record located by the read plan.
struct Record {
  container::ChunkHeader header;
  uint64_t element_offset = 0;
  ByteSpan compressed;
  ByteSpan raw;
};

/// Header, footer and record list of a container: the read plan every
/// replay builds first, under one container.plan span.
struct Plan {
  container::Header header;
  const isobar::Codec* codec = nullptr;
  std::vector<container::IndexEntry> entries;
  std::vector<Record> records;
};

Status ParseRecordAt(ByteSpan bytes, size_t offset, uint64_t element_offset,
                     Record* record) {
  ISOBAR_ASSIGN_OR_RETURN(record->header,
                          container::ParseChunkHeader(bytes, &offset));
  record->element_offset = element_offset;
  record->compressed = bytes.subspan(offset, record->header.compressed_size);
  record->raw = bytes.subspan(offset + record->header.compressed_size,
                              record->header.raw_size);
  return Status::OK();
}

/// Parses header and footer; walks every record when `walk` is set.
Status BuildPlan(ByteSpan bytes, bool walk, Plan* plan) {
  size_t offset = 0;
  ISOBAR_ASSIGN_OR_RETURN(plan->header, container::ParseHeader(bytes, &offset));
  ISOBAR_ASSIGN_OR_RETURN(plan->codec, isobar::GetCodec(plan->header.codec));
  if (plan->header.version < container::kVersion) {
    return Status::NotSupported("replay: only v2 containers are benchmarked");
  }
  ISOBAR_ASSIGN_OR_RETURN(container::ChunkIndex index,
                          container::ParseFooter(bytes, plan->header));
  plan->header.element_count = index.element_count;
  plan->header.chunk_count = index.entries.size();
  plan->entries = std::move(index.entries);
  if (!walk) return Status::OK();
  uint64_t element_offset = 0;
  offset = container::kHeaderSize;
  while (offset < index.payload_end) {
    Record record;
    ISOBAR_RETURN_NOT_OK(ParseRecordAt(bytes, offset, element_offset, &record));
    offset += container::kChunkHeaderSize + record.header.compressed_size +
              record.header.raw_size;
    element_offset += record.header.element_count;
    plan->records.push_back(record);
  }
  if (offset != index.payload_end ||
      element_offset != plan->header.element_count) {
    return Status::Corruption("replay: record walk disagrees with the footer");
  }
  return Status::OK();
}

/// Reverses one record into `dest` (exactly element_count * width bytes):
/// solver decode, scatter of both sections, checksum.
Status DecodeRecord(const Plan& plan, const Record& record,
                    isobar::MutableByteSpan dest, Bytes* scratch,
                    Tracer* tracer) {
  const size_t width = plan.header.width;
  const uint64_t full_mask = FullMask(width);
  const bool undetermined =
      (record.header.flags & container::kChunkUndetermined) != 0;
  const uint64_t mask =
      undetermined ? full_mask : record.header.compressible_mask;
  const uint64_t n = record.header.element_count;
  if ((mask & ~full_mask) != 0 || dest.size() != n * width) {
    return Status::Corruption("replay: chunk geometry");
  }
  const size_t expected_packed =
      static_cast<size_t>(n) *
      static_cast<size_t>(isobar::PopcountMask(mask, width));
  ByteSpan packed = record.compressed;
  if ((record.header.flags & container::kChunkStoredRaw) == 0) {
    Scope decode(tracer, "compressors.decode", expected_packed);
    scratch->clear();
    ISOBAR_RETURN_NOT_OK(plan.codec->Decompress(record.compressed,
                                                expected_packed, scratch));
    packed = ByteSpan(*scratch);
  }
  if (packed.size() != expected_packed) {
    return Status::Corruption("replay: packed section size");
  }
  {
    Scope scatter(tracer, "partitioner.scatter", dest.size());
    ISOBAR_RETURN_NOT_OK(isobar::ScatterColumns(
        packed, width, mask, plan.header.linearization, dest));
    ISOBAR_RETURN_NOT_OK(isobar::ScatterColumns(
        record.raw, width, full_mask & ~mask,
        container::RawSectionLinearization(plan.header.version), dest));
  }
  Scope crc(tracer, "crc32c", dest.size());
  if (isobar::crc32c::Extend(0, dest.data(), dest.size()) !=
      record.header.crc32c) {
    return Status::Corruption("replay: chunk checksum mismatch");
  }
  return Status::OK();
}

}  // namespace

isobar::Result<CompressReplay> ReplayCompress(ByteSpan data, size_t width,
                                              Tracer* tracer) {
  const isobar::CompressOptions options;
  const isobar::Analyzer analyzer(options.analyzer);
  const isobar::EupaSelector selector(options.eupa);
  const uint64_t full_mask = FullMask(width);
  ISOBAR_RETURN_NOT_OK(isobar::ValidateCompressInput(data.size(), width));
  if (data.empty()) return Status::InvalidArgument("replay: empty input");

  Scope root(tracer, "isobar.compress", data.size());
  CompressReplay replay;
  {
    Scope select(tracer, "eupa_selector.select", data.size());
    const uint64_t n = data.size() / width;
    const uint64_t probe_elements = std::min<uint64_t>(
        n, std::max<uint64_t>(options.eupa.sample_elements, 1));
    ISOBAR_ASSIGN_OR_RETURN(
        isobar::AnalysisResult probe,
        analyzer.Analyze(data.subspan(0, probe_elements * width), width));
    const uint64_t mask =
        probe.improvable() ? probe.compressible_mask : full_mask;
    ISOBAR_ASSIGN_OR_RETURN(replay.decision,
                            selector.Select(data, width, mask));
  }
  ISOBAR_ASSIGN_OR_RETURN(const isobar::Codec* codec,
                          isobar::GetCodec(replay.decision.codec));
  const Linearization linearization = replay.decision.linearization;

  const isobar::Chunker chunker(data, width, options.chunk_elements);
  container::Header header;
  header.version = options.container_version;
  header.width = static_cast<uint8_t>(width);
  header.codec = replay.decision.codec;
  header.linearization = linearization;
  header.preference = options.eupa.preference;
  header.tau_centi = static_cast<uint16_t>(options.analyzer.tau * 100.0 + 0.5);
  header.element_count = data.size() / width;
  header.chunk_elements = options.chunk_elements;
  header.chunk_count = chunker.chunk_count();
  Bytes& out = replay.container;
  {
    Scope write(tracer, "container.write");
    container::AppendHeader(header, &out);
  }
  const Linearization raw_linearization =
      container::RawSectionLinearization(header.version);

  std::vector<size_t> record_offsets;
  Bytes gathered;
  Bytes raw;
  Bytes compressed;
  for (uint64_t ci = 0; ci < chunker.chunk_count(); ++ci) {
    const ByteSpan chunk = chunker.chunk(ci);
    record_offsets.push_back(out.size());
    isobar::AnalysisResult analysis;
    {
      Scope analyze(tracer, "analyzer.analyze", chunk.size());
      ISOBAR_ASSIGN_OR_RETURN(analysis, analyzer.Analyze(chunk, width));
    }
    container::ChunkHeader chunk_header;
    chunk_header.element_count = chunk.size() / width;
    chunk_header.compressible_mask = analysis.compressible_mask;
    {
      Scope crc(tracer, "crc32c", chunk.size());
      chunk_header.crc32c = isobar::crc32c::Value(chunk);
    }
    ByteSpan raw_section;
    {
      Scope gather(tracer, "partitioner.gather", chunk.size());
      if (analysis.improvable()) {
        ISOBAR_RETURN_NOT_OK(isobar::PartitionDataInto(
            chunk, width, analysis.compressible_mask, linearization,
            &gathered, &raw, raw_linearization));
        raw_section = ByteSpan(raw);
      } else {
        chunk_header.flags |= container::kChunkUndetermined;
        ISOBAR_RETURN_NOT_OK(isobar::GatherColumns(chunk, width, full_mask,
                                                   linearization, &gathered));
      }
    }
    {
      Scope encode(tracer, "compressors.encode", gathered.size());
      ISOBAR_RETURN_NOT_OK(codec->Compress(gathered, &compressed));
    }
    replay.solver_input_bytes += gathered.size();
    ++replay.chunks;
    const bool stored_raw = compressed.size() >= gathered.size();
    const Bytes& section = stored_raw ? gathered : compressed;
    if (stored_raw) {
      chunk_header.flags |= container::kChunkStoredRaw;
      ++replay.stored_raw_chunks;
    }
    chunk_header.compressed_size = section.size();
    chunk_header.raw_size = raw_section.size();
    {
      Scope write(tracer, "container.write");
      container::AppendChunkHeader(chunk_header, &out);
    }
    out.insert(out.end(), section.begin(), section.end());
    out.insert(out.end(), raw_section.begin(), raw_section.end());
  }

  std::vector<container::IndexEntry> entries;
  uint64_t element_offset = 0;
  for (const size_t record_offset : record_offsets) {
    Scope write(tracer, "container.write");
    ISOBAR_ASSIGN_OR_RETURN(
        container::IndexEntry entry,
        container::MakeIndexEntry(out, record_offset, element_offset));
    element_offset += entry.element_count;
    entries.push_back(entry);
  }
  {
    Scope write(tracer, "container.write");
    container::AppendFooter(entries, header.element_count, &out);
  }
  return replay;
}

isobar::Result<Bytes> ReplayDecompress(ByteSpan container_bytes,
                                       Tracer* tracer) {
  Scope root(tracer, "isobar.decompress", container_bytes.size());
  Plan plan;
  {
    Scope planning(tracer, "container.plan");
    ISOBAR_RETURN_NOT_OK(BuildPlan(container_bytes, /*walk=*/true, &plan));
  }
  const size_t width = plan.header.width;
  Bytes out(static_cast<size_t>(plan.header.element_count) * width);
  Bytes scratch;
  for (const Record& record : plan.records) {
    const size_t offset = static_cast<size_t>(record.element_offset) * width;
    ISOBAR_RETURN_NOT_OK(DecodeRecord(
        plan, record,
        isobar::MutableByteSpan(out.data() + offset,
                                record.header.element_count * width),
        &scratch, tracer));
  }
  return out;
}

isobar::Result<Bytes> ReplayRange(ByteSpan container_bytes, uint64_t first,
                                  uint64_t end, Tracer* tracer,
                                  uint64_t* decoded_bytes) {
  Scope root(tracer, "isobar.range", container_bytes.size());
  Plan plan;
  {
    Scope planning(tracer, "container.plan");
    ISOBAR_RETURN_NOT_OK(BuildPlan(container_bytes, /*walk=*/false, &plan));
    if (first > end || end > plan.header.element_count) {
      return Status::InvalidArgument("replay: range out of bounds");
    }
    const auto& entries = plan.entries;
    size_t i = static_cast<size_t>(
        std::upper_bound(entries.begin(), entries.end(), first,
                         [](uint64_t value, const container::IndexEntry& e) {
                           return value < e.element_offset;
                         }) -
        entries.begin());
    if (i > 0) --i;
    for (; i < entries.size() && entries[i].element_offset < end; ++i) {
      if (entries[i].element_offset + entries[i].element_count <= first) {
        continue;
      }
      Record record;
      ISOBAR_RETURN_NOT_OK(ParseRecordAt(
          container_bytes, static_cast<size_t>(entries[i].record_offset),
          entries[i].element_offset, &record));
      plan.records.push_back(record);
    }
  }
  const size_t width = plan.header.width;
  Bytes out(static_cast<size_t>(end - first) * width);
  Bytes chunk;
  Bytes scratch;
  for (const Record& record : plan.records) {
    const uint64_t n = record.header.element_count;
    chunk.resize(static_cast<size_t>(n) * width);
    ISOBAR_RETURN_NOT_OK(
        DecodeRecord(plan, record, isobar::MutableByteSpan(chunk), &scratch,
                     tracer));
    *decoded_bytes += chunk.size();
    const uint64_t begin = std::max(first, record.element_offset);
    const uint64_t stop = std::min(end, record.element_offset + n);
    std::memcpy(out.data() + (begin - first) * width,
                chunk.data() + (begin - record.element_offset) * width,
                static_cast<size_t>(stop - begin) * width);
  }
  return out;
}

isobar::Result<Bytes> ReplayColumns(ByteSpan container_bytes,
                                    uint64_t column_mask, Tracer* tracer,
                                    uint64_t* decoded_bytes) {
  Scope root(tracer, "isobar.columns", container_bytes.size());
  Plan plan;
  {
    Scope planning(tracer, "container.plan");
    ISOBAR_RETURN_NOT_OK(BuildPlan(container_bytes, /*walk=*/true, &plan));
  }
  const size_t width = plan.header.width;
  const uint64_t full_mask = FullMask(width);
  if (column_mask == 0 || (column_mask & ~full_mask) != 0) {
    return Status::InvalidArgument("replay: bad column mask");
  }
  const size_t requested =
      static_cast<size_t>(isobar::PopcountMask(column_mask, width));
  const size_t total = static_cast<size_t>(plan.header.element_count);
  Bytes out(total * requested);
  Bytes chunk;
  Bytes planes;
  Bytes scratch;
  for (const Record& record : plan.records) {
    const size_t n = static_cast<size_t>(record.header.element_count);
    chunk.resize(n * width);
    ISOBAR_RETURN_NOT_OK(
        DecodeRecord(plan, record, isobar::MutableByteSpan(chunk), &scratch,
                     tracer));
    const bool undetermined =
        (record.header.flags & container::kChunkUndetermined) != 0;
    const uint64_t solver_mask =
        undetermined ? full_mask : record.header.compressible_mask;
    if ((column_mask & solver_mask) != 0) {
      *decoded_bytes +=
          n * static_cast<size_t>(isobar::PopcountMask(solver_mask, width));
    }
    *decoded_bytes += n * static_cast<size_t>(isobar::PopcountMask(
                              column_mask & ~solver_mask, width));
    {
      Scope gather(tracer, "partitioner.gather", chunk.size());
      ISOBAR_RETURN_NOT_OK(isobar::GatherColumns(
          chunk, width, column_mask, Linearization::kColumn, &planes));
    }
    for (size_t p = 0; p < requested; ++p) {
      std::memcpy(out.data() + p * total + record.element_offset,
                  planes.data() + p * n, n);
    }
  }
  return out;
}

}  // namespace perfbench
