#include "expr.hh"

#include <algorithm>
#include <cctype>
#include <utility>

#include "relation/error.hh"

namespace mixedproxy::litmus {

ExprPtr
Expr::literal(std::uint64_t value)
{
    auto *node = new Expr(Kind::Literal);
    node->literalValue = value;
    return ExprPtr(node);
}

ExprPtr
Expr::reg(std::string thread, std::string reg_name)
{
    auto *node = new Expr(Kind::Reg);
    node->thread = std::move(thread);
    node->regName = std::move(reg_name);
    return ExprPtr(node);
}

ExprPtr
Expr::mem(std::string location)
{
    auto *node = new Expr(Kind::Mem);
    node->location = std::move(location);
    return ExprPtr(node);
}

namespace {

void
requireValue(const ExprPtr &e, const char *what)
{
    if (!e || !e->isValue())
        panic("Expr::", what, " operand must be a value expression");
}

void
requireBool(const ExprPtr &e, const char *what)
{
    if (!e || e->isValue())
        panic("Expr::", what, " operand must be a boolean expression");
}

} // namespace

ExprPtr
Expr::eq(ExprPtr lhs, ExprPtr rhs)
{
    requireValue(lhs, "eq");
    requireValue(rhs, "eq");
    auto *node = new Expr(Kind::Eq);
    node->lhs = std::move(lhs);
    node->rhs = std::move(rhs);
    return ExprPtr(node);
}

ExprPtr
Expr::ne(ExprPtr lhs, ExprPtr rhs)
{
    requireValue(lhs, "ne");
    requireValue(rhs, "ne");
    auto *node = new Expr(Kind::Ne);
    node->lhs = std::move(lhs);
    node->rhs = std::move(rhs);
    return ExprPtr(node);
}

ExprPtr
Expr::logicalAnd(ExprPtr lhs, ExprPtr rhs)
{
    requireBool(lhs, "logicalAnd");
    requireBool(rhs, "logicalAnd");
    auto *node = new Expr(Kind::And);
    node->lhs = std::move(lhs);
    node->rhs = std::move(rhs);
    return ExprPtr(node);
}

ExprPtr
Expr::logicalOr(ExprPtr lhs, ExprPtr rhs)
{
    requireBool(lhs, "logicalOr");
    requireBool(rhs, "logicalOr");
    auto *node = new Expr(Kind::Or);
    node->lhs = std::move(lhs);
    node->rhs = std::move(rhs);
    return ExprPtr(node);
}

ExprPtr
Expr::logicalNot(ExprPtr operand)
{
    requireBool(operand, "logicalNot");
    auto *node = new Expr(Kind::Not);
    node->lhs = std::move(operand);
    return ExprPtr(node);
}

bool
Expr::isValue() const
{
    return _kind == Kind::Literal || _kind == Kind::Reg ||
           _kind == Kind::Mem;
}

bool
Expr::evalBool(const Outcome &outcome) const
{
    switch (_kind) {
      case Kind::Eq:
        return lhs->evalValue(outcome) == rhs->evalValue(outcome);
      case Kind::Ne:
        return lhs->evalValue(outcome) != rhs->evalValue(outcome);
      case Kind::And:
        return lhs->evalBool(outcome) && rhs->evalBool(outcome);
      case Kind::Or:
        return lhs->evalBool(outcome) || rhs->evalBool(outcome);
      case Kind::Not:
        return !lhs->evalBool(outcome);
      case Kind::Literal:
      case Kind::Reg:
      case Kind::Mem:
        panic("evalBool on a value expression");
    }
    panic("unknown Expr kind");
}

std::uint64_t
Expr::evalValue(const Outcome &outcome) const
{
    switch (_kind) {
      case Kind::Literal:
        return literalValue;
      case Kind::Reg:
        return outcome.reg(thread, regName);
      case Kind::Mem:
        return outcome.mem(location);
      default:
        panic("evalValue on a boolean expression");
    }
}

void
Expr::forEachRegRef(
    const std::function<void(const std::string &thread,
                             const std::string &reg)> &fn) const
{
    if (_kind == Kind::Reg)
        fn(thread, regName);
    if (lhs)
        lhs->forEachRegRef(fn);
    if (rhs)
        rhs->forEachRegRef(fn);
}

void
Expr::forEachMemRef(
    const std::function<void(const std::string &location)> &fn) const
{
    if (_kind == Kind::Mem)
        fn(location);
    if (lhs)
        lhs->forEachMemRef(fn);
    if (rhs)
        rhs->forEachMemRef(fn);
}

std::string
Expr::toString() const
{
    switch (_kind) {
      case Kind::Literal:
        return std::to_string(literalValue);
      case Kind::Reg:
        return thread + "." + regName;
      case Kind::Mem:
        return "[" + location + "]";
      case Kind::Eq:
        return lhs->toString() + " == " + rhs->toString();
      case Kind::Ne:
        return lhs->toString() + " != " + rhs->toString();
      case Kind::And:
      case Kind::Or: {
        // Built by append rather than operator+ chaining: GCC 12's
        // -Wrestrict misfires on literal + std::string&& concatenation
        // once surrounding code is inlined aggressively (GCC PR105651).
        std::string out = "(";
        out += lhs->toString();
        out += _kind == Kind::And ? " && " : " || ";
        out += rhs->toString();
        out += ")";
        return out;
      }
      case Kind::Not:
        return "!(" + lhs->toString() + ")";
    }
    panic("unknown Expr kind");
}

// ---- Condition parser ---------------------------------------------------

namespace {

/** A tiny recursive-descent parser over the condition string. */
class ConditionParser
{
  public:
    explicit ConditionParser(const std::string &text) : text(text) {}

    ExprPtr
    parse()
    {
        Node n = parseOr();
        skipWs();
        if (pos != text.size())
            fail("trailing input");
        return n.expr;
    }

  private:
    /** A parsed subexpression and the height of its tree. */
    struct Node
    {
        ExprPtr expr;
        std::size_t height = 1;
    };

    [[noreturn]] void
    fail(const std::string &why) const
    {
        fatal("condition parse error at offset ", pos, " of '", text,
              "': ", why);
    }

    /**
     * Wrap @p expr as a node over children of height @p below. Every
     * pass over a condition (evaluation, printing, destruction)
     * recurses once per level, so the tree height is capped as well as
     * the parser's own descent.
     */
    Node
    node(ExprPtr expr, std::size_t below) const
    {
        if (below >= kMaxConditionDepth)
            tooDeep();
        return {std::move(expr), below + 1};
    }

    [[noreturn]] void
    tooDeep() const
    {
        fail("nesting deeper than " + std::to_string(kMaxConditionDepth));
    }

    void
    skipWs()
    {
        while (pos < text.size() &&
               std::isspace(static_cast<unsigned char>(text[pos]))) {
            pos++;
        }
    }

    bool
    consume(const std::string &token)
    {
        skipWs();
        if (text.compare(pos, token.size(), token) == 0) {
            pos += token.size();
            return true;
        }
        return false;
    }

    char
    peek()
    {
        skipWs();
        return pos < text.size() ? text[pos] : '\0';
    }

    std::string
    parseIdent()
    {
        skipWs();
        std::size_t start = pos;
        while (pos < text.size() &&
               (std::isalnum(static_cast<unsigned char>(text[pos])) ||
                text[pos] == '_')) {
            pos++;
        }
        if (pos == start)
            fail("expected identifier");
        return text.substr(start, pos - start);
    }

    Node
    parseOr()
    {
        Node n = parseAnd();
        while (consume("||")) {
            Node rhs = parseAnd();
            n = node(Expr::logicalOr(n.expr, rhs.expr),
                     std::max(n.height, rhs.height));
        }
        return n;
    }

    Node
    parseAnd()
    {
        Node n = parseUnary();
        while (consume("&&")) {
            Node rhs = parseUnary();
            n = node(Expr::logicalAnd(n.expr, rhs.expr),
                     std::max(n.height, rhs.height));
        }
        return n;
    }

    Node
    parseUnary()
    {
        // '!' and '(' are the only recursive descents; bound them
        // before recursing so a hostile condition cannot exhaust the
        // stack on the way down.
        if (consume("!")) {
            if (++descent > kMaxConditionDepth)
                tooDeep();
            Node inner = parseUnary();
            descent--;
            return node(Expr::logicalNot(inner.expr), inner.height);
        }
        if (peek() == '(') {
            // Could be a parenthesized boolean. Values never start with
            // '(' in this grammar, so this is unambiguous.
            consume("(");
            if (++descent > kMaxConditionDepth)
                tooDeep();
            Node n = parseOr();
            descent--;
            if (!consume(")"))
                fail("expected ')'");
            return n;
        }
        return {parseComparison(), 2};
    }

    ExprPtr
    parseComparison()
    {
        ExprPtr lhs = parseValue();
        if (consume("=="))
            return Expr::eq(lhs, parseValue());
        if (consume("!="))
            return Expr::ne(lhs, parseValue());
        fail("expected '==' or '!='");
    }

    ExprPtr
    parseValue()
    {
        skipWs();
        if (pos >= text.size())
            fail("expected value");
        char c = text[pos];
        if (c == '[') {
            pos++;
            std::string loc = parseIdent();
            if (!consume("]"))
                fail("expected ']'");
            return Expr::mem(loc);
        }
        if (std::isdigit(static_cast<unsigned char>(c))) {
            std::size_t used = 0;
            std::uint64_t value = 0;
            try {
                value = std::stoull(text.substr(pos), &used, 0);
            } catch (const std::exception &) {
                fail("bad integer literal");
            }
            pos += used;
            return Expr::literal(value);
        }
        std::string thread = parseIdent();
        if (!consume("."))
            fail("expected '.' after thread name");
        std::string reg = parseIdent();
        return Expr::reg(thread, reg);
    }

    const std::string &text;
    std::size_t pos = 0;
    std::size_t descent = 0; ///< open '!' and '(' levels
};

} // namespace

ExprPtr
parseCondition(const std::string &text)
{
    return ConditionParser(text).parse();
}

} // namespace mixedproxy::litmus
