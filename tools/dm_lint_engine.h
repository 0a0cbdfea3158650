// dm_lint statement/CFG engine.
//
// The v1 analyzer matched tokens and lines; the flow-aware rules
// (lock-order, branch-sensitive status/span) need to know *where control
// can go*. This layer builds, per file, a brace/paren-matched statement
// tree from the blanked code view, and per function an intra-procedural
// control-flow graph over its statements. No libclang: the parser is a
// single pass over the code view that
//
//   * groups text into statements at ';' (paren depth 0),
//   * opens a child block at '{' — a *body* block when the brace sits at
//     paren depth 0 (if/for/function/...), an *argument* block when it
//     sits inside an unclosed '(' (lambda or braced-init argument, e.g.
//     the callback of CxlDirectory::lock),
//   * skips preprocessor logical lines (including '\'-continuations), so
//     a macro body spanning the grouper cannot desynchronize the braces.
//
// The CFG models structured control flow: if/else chains branch, loops
// get a zero-iteration bypass edge and a back edge, switch bodies get a
// no-case-matched bypass, return/throw edge to the function exit,
// break/continue to their targets. Nested functions (lambdas bound to
// variables, local structs) are opaque single nodes in the enclosing
// CFG — their bodies may run never or later — and are analyzed as
// functions of their own. Argument blocks *are* folded into their
// carrying statement's flat text: a completion callback that closes a
// span counts as closing it, matching the instrumentation idiom.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "dm_lint_model.h"

namespace dm::lint {

struct StmtNode {
  std::string text;   // statement text / block header, whitespace-collapsed
  int line = 0;       // 1-based line of the first character
  int end_line = 0;   // last line covered, children included
  bool is_block = false;   // has a body ({...} at paren depth 0)
  bool arg_block = false;  // block opened inside an unclosed '(' or
                           // braced-init: belongs to the carrying statement
  // For a body block: its statements. For a plain statement: any argument
  // blocks (lambda bodies, braced-init lists) it carries, in order.
  std::vector<StmtNode> children;
};

// Parses the whole file (preprocessor logical lines skipped).
std::vector<StmtNode> build_statement_tree(const SourceFile& file);

enum class BlockKind {
  kIf,
  kElseIf,
  kElse,
  kFor,
  kWhile,
  kDo,
  kSwitch,
  kTry,
  kCatch,
  kScope,      // bare braces, case bodies, ...
  kFunction,   // free/member function or constructor definition
  kLambdaVar,  // `auto cb = [...](...) {...}` — deferred body
  kAggregate,  // class/struct/enum/union/namespace/extern block
  kReturn,     // `return T{...}` — a braced-init return, terminal
};

BlockKind classify_block(const StmtNode& node);

// `node.text` plus every child's text, recursively, joined with spaces.
std::string flat_text(const StmtNode& node);

// Whole-token containment ("end_span" does not match "append_end_spans").
bool contains_token(std::string_view text, std::string_view token);

struct FunctionUnit {
  const StmtNode* body = nullptr;  // the block node (children = statements)
  std::string header;              // signature text
  int line = 0;
};

// Every function-like body in the tree, lambdas and nested local structs
// included, in source order.
std::vector<FunctionUnit> collect_functions(const std::vector<StmtNode>& tree);

// Control-flow graph over one function body. Node ids index `nodes`;
// `exit_id` is a virtual exit (== nodes.size()) with no CfgNode.
struct Cfg {
  struct Node {
    const StmtNode* stmt = nullptr;
    std::string flat;  // statement text with argument blocks folded in
    int line = 0;
    int end_line = 0;
  };
  std::vector<Node> nodes;
  std::vector<std::vector<int>> succ;  // size nodes.size() + 1 (exit empty)
  int exit_id = 0;
};

Cfg build_cfg(const FunctionUnit& fn);

// True if some path from a successor of `from` reaches the exit without
// passing through any node whose flat text whole-token-contains `token`.
// (`from` itself is not inspected.) With `from == -1`, paths start at the
// function entry and every node is inspected.
bool path_to_exit_avoids(const Cfg& cfg, int from, std::string_view token);

// The node covering source line `line` (smallest enclosing statement), or
// -1. Argument blocks resolve to their carrying statement.
int node_at_line(const Cfg& cfg, int line);

// If `s` is exactly a call chain (`a.b(...).c(...)`, `foo(...)`,
// `ns::foo(...)`) returns the name of the final call, else "". A final call
// qualified with `std::` yields "" (it is not a repo function).
std::string final_call_name(const std::string& s);

}  // namespace dm::lint
