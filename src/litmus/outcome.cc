#include "outcome.hh"

#include <sstream>

#include "relation/error.hh"

namespace mixedproxy::litmus {

std::uint64_t
Outcome::reg(const std::string &thread, const std::string &reg_name) const
{
    auto it = registers.find(thread + "." + reg_name);
    if (it == registers.end())
        fatal("outcome has no register ", thread, ".", reg_name);
    return it->second;
}

std::uint64_t
Outcome::mem(const std::string &location) const
{
    auto it = memory.find(location);
    if (it == memory.end())
        fatal("outcome has no location ", location);
    return it->second;
}

std::string
Outcome::toString() const
{
    std::ostringstream os;
    bool first = true;
    for (const auto &[name, value] : registers) {
        if (!first)
            os << " ";
        first = false;
        os << name << "=" << value;
    }
    for (const auto &[name, value] : memory) {
        if (!first)
            os << " ";
        first = false;
        os << "[" << name << "]=" << value;
    }
    return os.str();
}

std::ostream &
operator<<(std::ostream &os, const Outcome &outcome)
{
    return os << outcome.toString();
}

} // namespace mixedproxy::litmus
