#include "fault.hh"

#include <algorithm>
#include <random>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "conform/trace.hh"

namespace mixedproxy::conform {

std::string
toString(FaultKind kind)
{
    switch (kind) {
      case FaultKind::Drop:
        return "drop";
      case FaultKind::Reorder:
        return "reorder";
      case FaultKind::Corrupt:
        return "corrupt";
    }
    return "?";
}

std::optional<FaultKind>
faultKindFromString(const std::string &name)
{
    if (name == "drop")
        return FaultKind::Drop;
    if (name == "reorder")
        return FaultKind::Reorder;
    if (name == "corrupt")
        return FaultKind::Corrupt;
    return std::nullopt;
}

ViolationKind
expectedViolation(FaultKind kind)
{
    switch (kind) {
      case FaultKind::Drop:
        return ViolationKind::Malformed;
      case FaultKind::Reorder:
        return ViolationKind::Coherence;
      case FaultKind::Corrupt:
        return ViolationKind::RfValue;
    }
    return ViolationKind::Malformed;
}

namespace {

/** One trace line plus its parse, when it is an event line. */
struct ParsedLine
{
    std::string text;
    bool isEvent = false;
    TraceEvent event;
};

std::vector<ParsedLine>
parseLines(const std::string &trace)
{
    std::vector<ParsedLine> lines;
    TraceLine line;
    std::string error;
    for (std::size_t pos = 0; pos < trace.size();) {
        const std::size_t end = std::min(trace.find('\n', pos), trace.size());
        ParsedLine parsed;
        parsed.text = trace.substr(pos, end - pos);
        if (parseTraceLine(parsed.text, line, error) &&
            line.kind == TraceLine::Kind::Event) {
            parsed.isEvent = true;
            parsed.event = line.event;
        }
        lines.push_back(std::move(parsed));
        pos = end + 1;
    }
    return lines;
}

std::string
join(const std::vector<ParsedLine> &lines, std::size_t skip)
{
    std::string out;
    for (std::size_t i = 0; i < lines.size(); i++) {
        if (i == skip)
            continue;
        out += lines[i].text;
        out += '\n';
    }
    return out;
}

/** Seeded pick among @p n sites (mt19937_64 is portable-deterministic;
 *  std::uniform_int_distribution is not, hence the modulo). */
std::size_t
pick(std::uint64_t seed, std::size_t n)
{
    std::mt19937_64 rng(seed);
    return static_cast<std::size_t>(rng() % n);
}

/**
 * Replace the token @p from in @p text with @p to, requiring a
 * non-digit right boundary so "uid":1 never matches inside "uid":12.
 */
bool
replaceToken(std::string &text, const std::string &from,
             const std::string &to)
{
    for (std::size_t pos = text.find(from); pos != std::string::npos;
         pos = text.find(from, pos + 1)) {
        const std::size_t end = pos + from.size();
        if (end < text.size() && text[end] >= '0' && text[end] <= '9')
            continue;
        text.replace(pos, from.size(), to);
        return true;
    }
    return false;
}

std::optional<std::string>
dropStore(std::vector<ParsedLine> lines, std::uint64_t seed)
{
    std::unordered_set<std::uint64_t> committed;
    for (const ParsedLine &line : lines) {
        if (line.isEvent && line.event.op == TraceOp::Commit)
            committed.insert(line.event.uid);
    }
    // Only a store whose commit arrives later leaves the orphan the
    // checker must flag; an uncommitted store vanishes silently.
    std::vector<std::size_t> sites;
    for (std::size_t i = 0; i < lines.size(); i++) {
        if (lines[i].isEvent && lines[i].event.op == TraceOp::Store &&
            committed.count(lines[i].event.uid)) {
            sites.push_back(i);
        }
    }
    if (sites.empty())
        return std::nullopt;
    return join(lines, sites[pick(seed, sites.size())]);
}

std::optional<std::string>
reorderCommits(std::vector<ParsedLine> lines, std::uint64_t seed)
{
    // The coherence conviction needs the two writes to be causally
    // ordered in a way the checker tracks: same thread, same location,
    // both generic (program order bumps the thread clock between
    // them). Map each committed uid back to its st line.
    struct WriteSite
    {
        std::size_t stLine = 0;
        std::size_t thread = 0;
        std::size_t location = 0;
        litmus::ProxyKind proxy = litmus::ProxyKind::Generic;
    };
    std::unordered_map<std::uint64_t, WriteSite> writes;
    for (std::size_t i = 0; i < lines.size(); i++) {
        const ParsedLine &line = lines[i];
        if (line.isEvent && line.event.op == TraceOp::Store) {
            writes[line.event.uid] = WriteSite{
                i, line.event.thread, line.event.location,
                line.event.proxy};
        }
    }
    std::vector<std::pair<std::size_t, std::uint64_t>> commits;
    for (std::size_t i = 0; i < lines.size(); i++) {
        if (lines[i].isEvent && lines[i].event.op == TraceOp::Commit)
            commits.emplace_back(i, lines[i].event.uid);
    }
    std::vector<std::pair<std::size_t, std::size_t>> sites;
    for (std::size_t a = 0; a < commits.size(); a++) {
        for (std::size_t b = a + 1; b < commits.size(); b++) {
            auto wa = writes.find(commits[a].second);
            auto wb = writes.find(commits[b].second);
            if (wa == writes.end() || wb == writes.end())
                continue;
            if (wa->second.thread != wb->second.thread ||
                wa->second.location != wb->second.location)
                continue;
            if (wa->second.proxy != litmus::ProxyKind::Generic ||
                wb->second.proxy != litmus::ProxyKind::Generic)
                continue;
            if (wa->second.stLine >= wb->second.stLine)
                continue;
            sites.emplace_back(commits[a].first, commits[b].first);
        }
    }
    if (sites.empty())
        return std::nullopt;
    const auto [first, second] = sites[pick(seed, sites.size())];
    // Swap the write identities in place (not the whole lines), so
    // seq stays monotone and the fault is purely "the coherence point
    // saw these two writes in the wrong order".
    const std::string uidA =
        "\"uid\":" + std::to_string(lines[first].event.uid);
    const std::string uidB =
        "\"uid\":" + std::to_string(lines[second].event.uid);
    if (!replaceToken(lines[first].text, uidA, uidB) ||
        !replaceToken(lines[second].text, uidB, uidA))
        return std::nullopt;
    return join(lines, lines.size());
}

std::optional<std::string>
corruptLoad(std::vector<ParsedLine> lines, std::uint64_t seed)
{
    std::vector<std::size_t> sites;
    for (std::size_t i = 0; i < lines.size(); i++) {
        if (lines[i].isEvent && lines[i].event.op == TraceOp::Load)
            sites.push_back(i);
    }
    if (sites.empty())
        return std::nullopt;
    const std::size_t site = sites[pick(seed, sites.size())];
    const std::uint64_t value = lines[site].event.value;
    if (!replaceToken(lines[site].text,
                      "\"val\":" + std::to_string(value),
                      "\"val\":" + std::to_string(value + 1)))
        return std::nullopt;
    return join(lines, lines.size());
}

} // namespace

std::optional<std::string>
injectFault(const std::string &trace, FaultKind kind,
            std::uint64_t seed)
{
    std::vector<ParsedLine> lines = parseLines(trace);
    switch (kind) {
      case FaultKind::Drop:
        return dropStore(std::move(lines), seed);
      case FaultKind::Reorder:
        return reorderCommits(std::move(lines), seed);
      case FaultKind::Corrupt:
        return corruptLoad(std::move(lines), seed);
    }
    return std::nullopt;
}

} // namespace mixedproxy::conform
