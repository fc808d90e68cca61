#include "json.hh"

#include <cstdio>
#include <sstream>

#include "obs/report.hh"

namespace mixedproxy::json {

namespace {

/** Build the value the reader is positioned at into @p out. */
bool
build(Reader &reader, Value &out)
{
    switch (reader.peek()) {
      case Reader::Kind::Null:
        out.kind = Value::Kind::Null;
        return reader.readNull();
      case Reader::Kind::Bool:
        out.kind = Value::Kind::Bool;
        return reader.readBool(out.boolean);
      case Reader::Kind::Number: {
        Number number;
        if (!reader.readNumber(number))
            return false;
        out.kind = Value::Kind::Number;
        out.number = number.value;
        out.integer = number.integer;
        out.isInteger = number.isInteger;
        return true;
      }
      case Reader::Kind::String: {
        std::string_view text;
        if (!reader.readString(text))
            return false;
        out.kind = Value::Kind::String;
        out.string = text;
        return true;
      }
      case Reader::Kind::Array:
        out.kind = Value::Kind::Array;
        if (!reader.beginArray())
            return false;
        while (reader.nextElement()) {
            if (!build(reader, out.array.emplace_back()))
                return false;
        }
        return !reader.failed();
      case Reader::Kind::Object: {
        out.kind = Value::Kind::Object;
        if (!reader.beginObject())
            return false;
        std::string_view key;
        while (reader.nextMember(key)) {
            std::string name(key);
            Value member;
            if (!build(reader, member))
                return false;
            auto [slot, inserted] =
                out.object.try_emplace(std::move(name), std::move(member));
            if (!inserted)
                return reader.fail("duplicate member \"" + slot->first +
                                   "\"");
        }
        return !reader.failed();
      }
      case Reader::Kind::End:
        break;
    }
    return false;
}

void
dumpValue(std::ostringstream &os, const Value &value)
{
    switch (value.kind) {
      case Value::Kind::Null:
        os << "null";
        break;
      case Value::Kind::Bool:
        os << (value.boolean ? "true" : "false");
        break;
      case Value::Kind::Number:
        if (value.isInteger) {
            os << value.integer;
        } else {
            char buffer[32];
            std::snprintf(buffer, sizeof buffer, "%.17g", value.number);
            os << buffer;
        }
        break;
      case Value::Kind::String:
        os << '"' << obs::jsonEscape(value.string) << '"';
        break;
      case Value::Kind::Array: {
        os << '[';
        bool first = true;
        for (const Value &element : value.array) {
            if (!first)
                os << ',';
            first = false;
            dumpValue(os, element);
        }
        os << ']';
        break;
      }
      case Value::Kind::Object: {
        os << '{';
        bool first = true;
        for (const auto &[name, member] : value.object) {
            if (!first)
                os << ',';
            first = false;
            os << '"' << obs::jsonEscape(name) << "\":";
            dumpValue(os, member);
        }
        os << '}';
        break;
      }
    }
}

} // namespace

const Value *
Value::find(const std::string &name) const
{
    if (kind != Kind::Object)
        return nullptr;
    auto it = object.find(name);
    return it == object.end() ? nullptr : &it->second;
}

std::string
Value::stringOr(const std::string &name,
                const std::string &fallback) const
{
    const Value *member = find(name);
    return member && member->kind == Kind::String ? member->string
                                                  : fallback;
}

bool
Value::boolOr(const std::string &name, bool fallback) const
{
    const Value *member = find(name);
    return member && member->kind == Kind::Bool ? member->boolean
                                                : fallback;
}

std::uint64_t
Value::uintOr(const std::string &name, std::uint64_t fallback) const
{
    const Value *member = find(name);
    return member && member->isInteger ? member->integer : fallback;
}

std::string
Value::dump() const
{
    std::ostringstream os;
    dumpValue(os, *this);
    return os.str();
}

std::unique_ptr<Value>
parse(const std::string &text, std::string *error)
{
    Reader reader(text);
    auto value = std::make_unique<Value>();
    if (build(reader, *value) && reader.finish())
        return value;
    if (error)
        *error = reader.error();
    return nullptr;
}

} // namespace mixedproxy::json
