/**
 * @file
 * Boolean condition expressions over litmus-test outcomes.
 *
 * Conditions appear in `require:` / `permit:` / `forbid:` assertions and
 * support register references ("t0.r3"), final-memory references ("[x]"),
 * integer literals, ==, !=, !, &&, || and parentheses.
 */

#ifndef MIXEDPROXY_LITMUS_EXPR_HH
#define MIXEDPROXY_LITMUS_EXPR_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "litmus/outcome.hh"

namespace mixedproxy::litmus {

class Expr;

/** Shared immutable expression node. */
using ExprPtr = std::shared_ptr<const Expr>;

/**
 * One node of a condition expression tree.
 *
 * Value nodes (Literal, Reg, Mem) evaluate to a 64-bit integer; boolean
 * nodes (Eq, Ne, And, Or, Not, True) evaluate to a truth value. The two
 * families must not be mixed: comparisons take value operands, logical
 * connectives take boolean operands. Factory functions enforce this.
 */
class Expr
{
  public:
    enum class Kind { True, Literal, Reg, Mem, Eq, Ne, And, Or, Not };

    /** The constant true condition. */
    static ExprPtr alwaysTrue();

    /** An integer literal value. */
    static ExprPtr literal(std::uint64_t value);

    /** The final value of register @p reg_name in thread @p thread. */
    static ExprPtr reg(std::string thread, std::string reg_name);

    /** The final value of memory location @p location. */
    static ExprPtr mem(std::string location);

    /** lhs == rhs over value operands. */
    static ExprPtr eq(ExprPtr lhs, ExprPtr rhs);

    /** lhs != rhs over value operands. */
    static ExprPtr ne(ExprPtr lhs, ExprPtr rhs);

    /** Logical conjunction. */
    static ExprPtr logicalAnd(ExprPtr lhs, ExprPtr rhs);

    /** Logical disjunction. */
    static ExprPtr logicalOr(ExprPtr lhs, ExprPtr rhs);

    /** Logical negation. */
    static ExprPtr logicalNot(ExprPtr operand);

    Kind kind() const { return _kind; }

    /** True if this node is a value (Literal/Reg/Mem) node. */
    bool isValue() const;

    /** Evaluate a boolean node against an outcome. */
    bool evalBool(const Outcome &outcome) const;

    /** Evaluate a value node against an outcome. */
    std::uint64_t evalValue(const Outcome &outcome) const;

    /**
     * Invoke @p fn with (thread, register) for every register reference
     * anywhere in this expression tree.
     */
    void forEachRegRef(
        const std::function<void(const std::string &thread,
                                 const std::string &reg)> &fn) const;

    /**
     * Invoke @p fn with the location name for every final-memory
     * reference ("[x]") anywhere in this expression tree.
     */
    void forEachMemRef(
        const std::function<void(const std::string &location)> &fn)
        const;

    /** Render with minimal parenthesization. */
    std::string toString() const;

  private:
    explicit Expr(Kind kind) : _kind(kind) {}

    Kind _kind;
    std::uint64_t literalValue = 0;
    std::string thread;
    std::string regName;
    std::string location;
    ExprPtr lhs;
    ExprPtr rhs;
};

/**
 * Deepest condition parseCondition() accepts, counted both as nested
 * '!' / '(' levels and as the height of the resulting tree. Evaluation,
 * printing and destruction all recurse once per level, so without a cap
 * one long line of '!' would overflow the stack.
 */
constexpr std::size_t kMaxConditionDepth = 256;

/**
 * Parse a condition string, e.g. "t0.r3 == 42 && [x] != 0".
 *
 * Grammar: or-expr := and-expr ('||' and-expr)*;
 *          and-expr := unary ('&&' unary)*;
 *          unary := '!' unary | '(' or-expr ')' | value ('=='|'!=') value;
 *          value := INT | IDENT '.' IDENT | '[' IDENT ']'.
 *
 * @throws FatalError on malformed input or nesting deeper than
 *         kMaxConditionDepth.
 */
ExprPtr parseCondition(const std::string &text);

} // namespace mixedproxy::litmus

#endif // MIXEDPROXY_LITMUS_EXPR_HH
