/**
 * @file
 * Parser for the plain-text litmus format consumed by the NVLitmus-style
 * front end (paper §6.3, Fig. 10).
 *
 * Format example:
 * @code
 * name: fig8a
 * alias rd2 rd1            # rd2 denotes the same location as rd1
 * init rd1 0
 *
 * thread t0 cta 0 gpu 0:
 *   st.global.u32 [rd1], 42
 *   fence.proxy.alias
 *   ld.global.u32 r3, [rd2]
 *
 * require: t0.r3 == 42
 * @endcode
 *
 * Lines beginning with '#' or '//' are comments; '#' also starts an
 * inline comment. `cta`/`gpu` default to the thread's index and 0.
 */

#ifndef MIXEDPROXY_LITMUS_PARSER_HH
#define MIXEDPROXY_LITMUS_PARSER_HH

#include <cstddef>
#include <iosfwd>
#include <string>

#include "litmus/test.hh"

namespace mixedproxy::litmus {

/**
 * Parse a litmus test from text.
 *
 * @throws FatalError with a line number on malformed input.
 */
LitmusTest parseTest(const std::string &text);

/**
 * The longest litmus source readSource() accepts, in bytes: 1 MiB, far
 * above any shipped or synthesized test (a few hundred bytes), so that
 * an endless stream such as /dev/zero fails instead of exhausting
 * memory.
 */
inline constexpr std::size_t kMaxSourceBytes = std::size_t{1} << 20;

/**
 * Read a whole litmus source from @p in (a file or stdin).
 *
 * @throws FatalError naming kMaxSourceBytes when @p in holds more.
 */
std::string readSource(std::istream &in);

/**
 * Parse a litmus test from a file on disk, read with readSource().
 *
 * @throws FatalError when the file cannot be opened, is over
 *         kMaxSourceBytes, or is malformed.
 */
LitmusTest parseTestFile(const std::string &path);

} // namespace mixedproxy::litmus

#endif // MIXEDPROXY_LITMUS_PARSER_HH
