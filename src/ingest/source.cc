#include "ingest/source.h"

#include <charconv>
#include <fstream>
#include <limits>

#include "ingest/jsonl.h"
#include "ingest/text_export.h"

namespace scprt::ingest {

namespace {

// Reads the next non-blank line into `buffer` and points `line` at it;
// false at end of stream. A line longer than kMaxRecordBytes is skipped
// through its newline without being buffered and counted in `malformed`.
bool NextLine(std::istream& in, std::string& buffer, std::string_view& line,
              std::uint64_t& malformed) {
  // Room for the longest record plus getline's terminating NUL.
  buffer.resize(kMaxRecordBytes + 1);
  for (;;) {
    in.getline(buffer.data(), static_cast<std::streamsize>(buffer.size()));
    if (in.fail()) {
      // Nothing extracted at end of stream, or a read error.
      if (in.eof() || in.bad()) return false;
      // The buffer filled before the newline: drop the rest unread.
      in.clear();
      in.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
      ++malformed;
      continue;
    }
    // gcount() includes the newline unless the last line lacks one.
    std::size_t length =
        static_cast<std::size_t>(in.gcount()) - (in.eof() ? 0 : 1);
    if (length > 0 && buffer[length - 1] == '\r') --length;
    line = std::string_view(buffer.data(), length);
    // The characters std::isspace accepts in the "C" locale.
    if (line.find_first_not_of(" \t\n\v\f\r") != line.npos) return true;
  }
}

// Strict decimal parse of a whole field into Int.
template <typename Int>
bool ParseField(std::string_view field, Int& out) {
  const char* begin = field.data();
  const char* end = begin + field.size();
  auto [ptr, ec] = std::from_chars(begin, end, out);
  return ec == std::errc() && ptr == end;
}

// tellg() that tolerates a set eofbit (the last line of a file without a
// trailing newline leaves getline at EOF while the record is still valid).
// Returns -1 for genuinely non-seekable streams (stdin, pipes).
std::streamoff TellAfterRecord(std::istream& in) {
  const bool was_eof = in.eof();
  if (was_eof) in.clear(in.rdstate() & ~std::ios::eofbit);
  const std::streamoff pos = in.tellg();
  if (was_eof) in.setstate(std::ios::eofbit);
  return pos;
}

void AdvancePosition(std::istream& in, SourcePosition& position) {
  ++position.record_index;
  const std::streamoff offset = TellAfterRecord(in);
  position.byte_offset =
      offset >= 0 ? static_cast<std::uint64_t>(offset) : 0;
}

bool StreamSeekable(std::istream* in) {
  return in != nullptr && TellAfterRecord(*in) >= 0;
}

bool SeekStream(std::istream* in, const SourcePosition& position,
                SourcePosition& tracked) {
  if (in == nullptr) return false;
  in->clear();
  in->seekg(static_cast<std::streamoff>(position.byte_offset));
  if (!*in) return false;
  tracked = position;
  return true;
}

}  // namespace

JsonlSource::JsonlSource(const std::string& path) {
  auto file = std::make_unique<std::ifstream>(path);
  if (!*file) return;
  in_ = file.get();
  owned_ = std::move(file);
}

bool JsonlSource::Next(RawRecord& out) {
  if (!in_) return false;
  std::string_view line;
  while (NextLine(*in_, buffer_, line, malformed_)) {
    JsonlRecord record;
    if (!ParseJsonlRecord(line, record)) {
      ++malformed_;
      continue;
    }
    out = RawRecord{};
    out.user = record.user;
    out.event_id = record.event_id;
    out.text = std::move(record.text);
    AdvancePosition(*in_, position_);
    return true;
  }
  return false;
}

bool JsonlSource::seekable() const { return StreamSeekable(in_); }

bool JsonlSource::Seek(const SourcePosition& position) {
  return SeekStream(in_, position, position_);
}

TsvSource::TsvSource(const std::string& path) {
  auto file = std::make_unique<std::ifstream>(path);
  if (!*file) return;
  in_ = file.get();
  owned_ = std::move(file);
}

bool TsvSource::seekable() const { return StreamSeekable(in_); }

bool TsvSource::Seek(const SourcePosition& position) {
  return SeekStream(in_, position, position_);
}

bool TsvSource::Next(RawRecord& out) {
  if (!in_) return false;
  std::string_view line;
  while (NextLine(*in_, buffer_, line, malformed_)) {
    if (line[0] == '#') continue;
    const std::size_t tab = line.find('\t');
    if (tab == std::string_view::npos) {
      ++malformed_;
      continue;
    }
    UserId user = 0;
    if (!ParseField(line.substr(0, tab), user)) {
      ++malformed_;
      continue;
    }
    std::string_view rest = line.substr(tab + 1);
    std::int32_t event_id = stream::kBackground;
    // Optional middle column: `user \t event \t text`. Text may not contain
    // tabs, so a second tab whose prefix parses as an integer is the label.
    const std::size_t tab2 = rest.find('\t');
    if (tab2 != std::string_view::npos) {
      std::int32_t label = 0;
      if (ParseField(rest.substr(0, tab2), label)) {
        event_id = label;
        rest = rest.substr(tab2 + 1);
      }
    }
    if (rest.empty()) {
      ++malformed_;
      continue;
    }
    out = RawRecord{};
    out.user = user;
    out.event_id = event_id;
    out.text.assign(rest);
    AdvancePosition(*in_, position_);
    return true;
  }
  return false;
}

bool TraceSource::Next(RawRecord& out) {
  if (next_ >= messages_->size()) return false;
  const stream::Message& message = (*messages_)[next_++];
  out = RawRecord{};
  out.user = message.user;
  out.event_id = message.event_id;
  out.keywords = message.keywords;
  out.pretokenized = true;
  return true;
}

bool TraceSource::Seek(const SourcePosition& position) {
  if (position.record_index > messages_->size()) return false;
  next_ = position.record_index;
  return true;
}

GeneratorSource::GeneratorSource(const stream::SyntheticConfig& config)
    : trace_(stream::GenerateSyntheticTrace(config)) {}

bool GeneratorSource::Seek(const SourcePosition& position) {
  if (position.record_index > trace_.messages.size()) return false;
  next_ = position.record_index;
  return true;
}

bool GeneratorSource::Next(RawRecord& out) {
  if (next_ >= trace_.messages.size()) return false;
  const stream::Message& message = trace_.messages[next_++];
  out = RawRecord{};
  out.user = message.user;
  out.event_id = message.event_id;
  out.text = RenderMessageText(message, trace_.dictionary);
  return true;
}

}  // namespace scprt::ingest
