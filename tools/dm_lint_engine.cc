#include "dm_lint_engine.h"

#include <algorithm>
#include <utility>

namespace dm::lint {
namespace {

// Preprocessor logical lines (directive plus '\'-continuations) are
// invisible to the statement grouper: a macro body's braces must not
// desynchronize the tree.
std::vector<char> preprocessor_mask(const SourceFile& file) {
  std::vector<char> mask(file.code.size(), 0);
  bool continuation = false;
  for (std::size_t li = 0; li < file.code.size(); ++li) {
    const std::string& raw = file.lines[li];
    bool directive = continuation;
    if (!directive) {
      const auto first = file.code[li].find_first_not_of(" \t");
      directive = first != std::string::npos && file.code[li][first] == '#';
    }
    mask[li] = directive ? 1 : 0;
    continuation = directive && !raw.empty() && raw.back() == '\\';
  }
  return mask;
}

struct Parser {
  const SourceFile& file;
  std::vector<char> mask;
  std::size_t li = 0;
  std::size_t ci = 0;

  bool done() const { return li >= file.code.size(); }
};

// Parses statements until a closing '}' (consumed) or end of file.
// Returns the line of the closing brace (or the last line seen).
int parse_children(Parser& p, std::vector<StmtNode>* out) {
  std::string text;
  int start_line = 0;
  int last_line = static_cast<int>(p.li) + 1;
  int paren = 0;
  bool pending_space = false;
  std::vector<StmtNode> pending_args;

  auto append_char = [&](char c, int line) {
    if (text.empty()) {
      start_line = line;
    } else if (pending_space) {
      text += ' ';
    }
    pending_space = false;
    text += c;
    last_line = line;
  };
  auto flush_stmt = [&] {
    if (!text.empty()) {
      StmtNode s;
      s.text = std::move(text);
      s.line = start_line;
      s.end_line = last_line;
      for (const StmtNode& a : pending_args) {
        s.end_line = std::max(s.end_line, a.end_line);
      }
      s.children = std::move(pending_args);
      out->push_back(std::move(s));
    }
    text.clear();
    pending_args.clear();
    paren = 0;
    pending_space = false;
  };

  while (!p.done()) {
    if (p.ci == 0 && p.mask[p.li]) {
      ++p.li;
      continue;
    }
    const std::string& line = p.file.code[p.li];
    if (p.ci >= line.size()) {
      p.ci = 0;
      ++p.li;
      pending_space = true;
      continue;
    }
    const char c = line[p.ci];
    const int ln = static_cast<int>(p.li) + 1;
    ++p.ci;
    if (c == ' ' || c == '\t') {
      pending_space = true;
      continue;
    }
    if (c == '(' || c == '[') {
      ++paren;
      append_char(c, ln);
      continue;
    }
    if (c == ')' || c == ']') {
      if (paren > 0) --paren;
      append_char(c, ln);
      continue;
    }
    if (c == ';' && paren == 0) {
      last_line = ln;
      flush_stmt();
      continue;
    }
    if (c == '{') {
      if (paren > 0 || (!text.empty() && text.back() == '=')) {
        // Argument/braced-init block: belongs to the carrying statement.
        StmtNode blk;
        blk.is_block = true;
        blk.arg_block = true;
        blk.line = ln;
        blk.end_line = parse_children(p, &blk.children);
        pending_args.push_back(std::move(blk));
        pending_space = true;
        continue;
      }
      StmtNode blk;
      blk.is_block = true;
      blk.line = text.empty() ? ln : start_line;
      blk.text = std::move(text);
      // Rare: argument blocks inside a block *header* (a lambda in an if
      // condition). Fold their text so tokens stay visible.
      for (const StmtNode& a : pending_args) {
        blk.text += " { " + flat_text(a) + " }";
      }
      text.clear();
      pending_args.clear();
      paren = 0;
      pending_space = false;
      blk.end_line = parse_children(p, &blk.children);
      last_line = blk.end_line;
      out->push_back(std::move(blk));
      continue;
    }
    if (c == '}') {
      flush_stmt();
      return ln;
    }
    append_char(c, ln);
  }
  flush_stmt();
  return last_line;
}

std::string first_token_after_template(const std::string& text) {
  std::size_t start = 0;
  std::size_t end = 0;
  for (std::size_t i = 0;;) {
    while (i < text.size() && text[i] == ' ') ++i;
    start = i;
    while (i < text.size() && is_ident_char(text[i])) ++i;
    end = i;
    if (text.compare(start, end - start, "template") == 0 &&
        end - start == 8) {
      while (i < text.size() && text[i] == ' ') ++i;
      if (i < text.size() && text[i] == '<') {
        const auto past = skip_angles(text, i);
        if (past == std::string::npos) break;
        i = past;
        continue;
      }
    }
    break;
  }
  return text.substr(start, end - start);
}

}  // namespace

std::vector<StmtNode> build_statement_tree(const SourceFile& file) {
  Parser p{file, preprocessor_mask(file)};
  std::vector<StmtNode> tree;
  while (!p.done()) parse_children(p, &tree);
  return tree;
}

BlockKind classify_block(const StmtNode& node) {
  const std::string& text = node.text;
  if (node.arg_block) return BlockKind::kScope;
  const std::string first = first_token_after_template(text);
  if (first == "if") return BlockKind::kIf;
  if (first == "else") {
    // "else if (...)" parses as one header.
    std::size_t i = text.find("else") + 4;
    while (i < text.size() && text[i] == ' ') ++i;
    if (text.compare(i, 2, "if") == 0 &&
        (i + 2 >= text.size() || !is_ident_char(text[i + 2]))) {
      return BlockKind::kElseIf;
    }
    return BlockKind::kElse;
  }
  if (first == "for") return BlockKind::kFor;
  if (first == "while") return BlockKind::kWhile;
  if (first == "do") return BlockKind::kDo;
  if (first == "switch") return BlockKind::kSwitch;
  if (first == "try") return BlockKind::kTry;
  if (first == "catch") return BlockKind::kCatch;
  if (first == "return" || first == "co_return" || first == "throw") {
    return BlockKind::kReturn;
  }
  if (first == "case" || first == "default" || first.empty()) {
    return BlockKind::kScope;
  }
  if (first == "namespace" || first == "class" || first == "struct" ||
      first == "enum" || first == "union" || first == "extern") {
    return BlockKind::kAggregate;
  }
  if (contains_token(text, "operator")) return BlockKind::kFunction;
  // A top-level '=' before the first '(' marks a bound lambda (deferred
  // body); otherwise any parenthesized header is a function-like
  // definition (function, method, constructor with init list).
  int depth = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '(' || c == '[') {
      if (c == '(' && depth == 0) return BlockKind::kFunction;
      ++depth;
    } else if (c == ')' || c == ']') {
      --depth;
    } else if (c == '=' && depth == 0) {
      return BlockKind::kLambdaVar;
    }
  }
  return BlockKind::kScope;
}

std::string flat_text(const StmtNode& node) {
  std::string out = node.text;
  for (const StmtNode& child : node.children) {
    if (!out.empty()) out += ' ';
    out += flat_text(child);
  }
  return out;
}

bool contains_token(std::string_view text, std::string_view token) {
  for (std::size_t pos = 0;;) {
    const auto at = text.find(token, pos);
    if (at == std::string_view::npos) return false;
    pos = at + 1;
    const bool left_ok = at == 0 || !is_ident_char(text[at - 1]);
    const auto end = at + token.size();
    const bool right_ok = end >= text.size() || !is_ident_char(text[end]);
    if (left_ok && right_ok) return true;
  }
}

namespace {

void collect_functions_walk(const std::vector<StmtNode>& nodes,
                            std::vector<FunctionUnit>* out) {
  for (const StmtNode& node : nodes) {
    if (node.is_block && !node.arg_block) {
      const BlockKind kind = classify_block(node);
      if (kind == BlockKind::kFunction || kind == BlockKind::kLambdaVar) {
        out->push_back({&node, node.text, node.line});
      }
      collect_functions_walk(node.children, out);
      continue;
    }
    if (node.is_block && node.arg_block) {
      // Bare argument block at statement position (unusual): recurse.
      collect_functions_walk(node.children, out);
      continue;
    }
    // Plain statement: its argument blocks are lambda/braced-init bodies.
    // Lambda bodies are deferred functions of their own.
    for (const StmtNode& arg : node.children) {
      if (!arg.children.empty()) {
        out->push_back({&arg, node.text, arg.line});
      }
      collect_functions_walk(arg.children, out);
    }
  }
}

// CFG builder: edges to the virtual exit use kExitSentinel and are
// remapped once the node count is final.
constexpr int kExitSentinel = -1;

struct CfgBuilder {
  Cfg cfg;
  std::vector<std::pair<int, int>> edges;

  int add_node(const StmtNode& s) {
    Cfg::Node n;
    n.stmt = &s;
    if (s.is_block && !s.arg_block) {
      // Branch headers: the node is the *condition* only — body statements
      // get their own nodes, so folding them in here would make the bypass
      // edge through the header look like it consumes body tokens.
      n.flat = s.text;
      for (const StmtNode& c : s.children) {
        if (c.arg_block) n.flat += ' ' + flat_text(c);
      }
    } else {
      n.flat = flat_text(s);
    }
    n.line = s.line;
    n.end_line = s.end_line;
    cfg.nodes.push_back(std::move(n));
    return static_cast<int>(cfg.nodes.size()) - 1;
  }
  void link(const std::vector<int>& preds, int to) {
    for (int p : preds) edges.emplace_back(p, to);
  }

  struct Ctx {
    std::vector<int>* breaks = nullptr;
    int continue_target = kExitSentinel;  // sentinel: treat as terminal
    bool continue_is_break = false;
  };

  static std::string stmt_first_token(const std::string& text) {
    std::size_t i = 0;
    while (i < text.size() && text[i] == ' ') ++i;
    std::size_t start = i;
    while (i < text.size() && is_ident_char(text[i])) ++i;
    return text.substr(start, i - start);
  }

  std::vector<int> seq(const std::vector<StmtNode>& stmts,
                       std::vector<int> preds, Ctx ctx) {
    for (std::size_t i = 0; i < stmts.size(); ++i) {
      const StmtNode& s = stmts[i];
      if (!s.is_block || s.arg_block) {
        // Plain statement (argument blocks folded into its flat text) or a
        // stray argument block at statement position.
        const int id = add_node(s);
        link(preds, id);
        const std::string first = stmt_first_token(s.text);
        if (first == "return" || first == "co_return" || first == "throw") {
          edges.emplace_back(id, kExitSentinel);
          preds.clear();
        } else if (first == "break") {
          if (ctx.breaks != nullptr) {
            ctx.breaks->push_back(id);
          } else {
            edges.emplace_back(id, kExitSentinel);
          }
          preds.clear();
        } else if (first == "continue") {
          if (ctx.continue_is_break && ctx.breaks != nullptr) {
            ctx.breaks->push_back(id);
          } else {
            edges.emplace_back(id, ctx.continue_target);
          }
          preds.clear();
        } else {
          preds = {id};
        }
        continue;
      }
      const BlockKind kind = classify_block(s);
      switch (kind) {
        case BlockKind::kIf: {
          const int cond = add_node(s);
          link(preds, cond);
          std::vector<int> outs = seq(s.children, {cond}, ctx);
          int prev_cond = cond;
          bool has_else = false;
          while (i + 1 < stmts.size() && stmts[i + 1].is_block &&
                 !stmts[i + 1].arg_block) {
            const BlockKind next = classify_block(stmts[i + 1]);
            if (next == BlockKind::kElseIf) {
              ++i;
              const int c2 = add_node(stmts[i]);
              edges.emplace_back(prev_cond, c2);
              auto branch = seq(stmts[i].children, {c2}, ctx);
              outs.insert(outs.end(), branch.begin(), branch.end());
              prev_cond = c2;
              continue;
            }
            if (next == BlockKind::kElse) {
              ++i;
              auto branch = seq(stmts[i].children, {prev_cond}, ctx);
              outs.insert(outs.end(), branch.begin(), branch.end());
              has_else = true;
            }
            break;
          }
          if (!has_else) outs.push_back(prev_cond);
          preds = std::move(outs);
          break;
        }
        case BlockKind::kFor:
        case BlockKind::kWhile: {
          const int cond = add_node(s);
          link(preds, cond);
          std::vector<int> breaks;
          Ctx inner;
          inner.breaks = &breaks;
          inner.continue_target = cond;
          auto body_out = seq(s.children, {cond}, inner);
          link(body_out, cond);  // back edge
          preds = {cond};
          preds.insert(preds.end(), breaks.begin(), breaks.end());
          break;
        }
        case BlockKind::kDo: {
          // Body runs at least once; continue approximated as break (it
          // reaches the trailing while, which may exit).
          std::vector<int> breaks;
          Ctx inner;
          inner.breaks = &breaks;
          inner.continue_is_break = true;
          preds = seq(s.children, std::move(preds), inner);
          preds.insert(preds.end(), breaks.begin(), breaks.end());
          break;
        }
        case BlockKind::kSwitch: {
          const int cond = add_node(s);
          link(preds, cond);
          std::vector<int> breaks;
          Ctx inner = ctx;
          inner.breaks = &breaks;
          auto body_out = seq(s.children, {cond}, inner);
          // No-case-matched bypass plus fallthrough and break exits.
          preds = {cond};
          preds.insert(preds.end(), body_out.begin(), body_out.end());
          preds.insert(preds.end(), breaks.begin(), breaks.end());
          break;
        }
        case BlockKind::kTry:
        case BlockKind::kCatch:
        case BlockKind::kElse:    // dangling else (no preceding if): scope
        case BlockKind::kElseIf:
        case BlockKind::kScope: {
          preds = seq(s.children, std::move(preds), ctx);
          break;
        }
        case BlockKind::kReturn: {
          const int id = add_node(s);
          // Fold the braced-init body into the node.
          cfg.nodes[id].flat = flat_text(s);
          link(preds, id);
          edges.emplace_back(id, kExitSentinel);
          preds.clear();
          break;
        }
        case BlockKind::kFunction:
        case BlockKind::kLambdaVar:
        case BlockKind::kAggregate: {
          // Nested definition: opaque single node (its body may run never
          // or later); analyzed separately as its own function unit. The
          // body folds into the flat — a deferred lambda that consumes a
          // token (`done = [..]{ end_span(..); }`) counts as a hand-off.
          const int id = add_node(s);
          cfg.nodes[id].flat = flat_text(s);
          link(preds, id);
          preds = {id};
          break;
        }
      }
    }
    return preds;
  }
};

}  // namespace

std::vector<FunctionUnit> collect_functions(
    const std::vector<StmtNode>& tree) {
  std::vector<FunctionUnit> out;
  collect_functions_walk(tree, &out);
  return out;
}

Cfg build_cfg(const FunctionUnit& fn) {
  CfgBuilder b;
  CfgBuilder::Ctx ctx;
  // Virtual entry: remember which nodes start the function.
  const std::size_t before = b.cfg.nodes.size();
  std::vector<int> outs = b.seq(fn.body->children, {}, ctx);
  (void)before;
  for (int p : outs) b.edges.emplace_back(p, kExitSentinel);
  b.cfg.exit_id = static_cast<int>(b.cfg.nodes.size());
  b.cfg.succ.assign(b.cfg.nodes.size() + 1, {});
  for (auto [from, to] : b.edges) {
    if (from < 0) continue;  // dangling (empty pred set start)
    const int target = to == kExitSentinel ? b.cfg.exit_id : to;
    b.cfg.succ[from].push_back(target);
  }
  return b.cfg;
}

bool path_to_exit_avoids(const Cfg& cfg, int from, std::string_view token) {
  // Entry-to-first-node edges are implicit: node 0 is the first statement
  // (seq() numbers nodes in flow order from the entry).
  std::vector<int> stack;
  std::vector<char> visited(cfg.nodes.size() + 1, 0);
  auto push = [&](int id) {
    if (id >= 0 && id <= cfg.exit_id && !visited[id]) {
      visited[id] = 1;
      stack.push_back(id);
    }
  };
  if (from < 0) {
    if (cfg.nodes.empty()) return true;  // empty body: entry falls to exit
    push(0);
  } else {
    if (from >= static_cast<int>(cfg.nodes.size())) return false;
    for (int s : cfg.succ[from]) push(s);
  }
  while (!stack.empty()) {
    const int id = stack.back();
    stack.pop_back();
    if (id == cfg.exit_id) return true;
    if (contains_token(cfg.nodes[id].flat, token)) continue;  // blocked
    for (int s : cfg.succ[id]) push(s);
  }
  return false;
}

int node_at_line(const Cfg& cfg, int line) {
  int best = -1;
  int best_span = 0;
  for (std::size_t i = 0; i < cfg.nodes.size(); ++i) {
    const Cfg::Node& n = cfg.nodes[i];
    if (line < n.line || line > n.end_line) continue;
    const int span = n.end_line - n.line;
    if (best < 0 || span < best_span) {
      best = static_cast<int>(i);
      best_span = span;
    }
  }
  return best;
}

std::string final_call_name(const std::string& s) {
  std::size_t i = 0;
  auto skip_ws = [&] {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\t')) ++i;
  };
  auto read_ident = [&]() -> std::string {
    skip_ws();
    if (i >= s.size() || !is_ident_start(s[i])) return "";
    std::size_t start = i;
    while (i < s.size() && is_ident_char(s[i])) ++i;
    return s.substr(start, i - start);
  };
  auto skip_parens = [&]() -> bool {
    skip_ws();
    if (i >= s.size() || s[i] != '(') return false;
    int depth = 0;
    for (; i < s.size(); ++i) {
      if (s[i] == '(') ++depth;
      if (s[i] == ')' && --depth == 0) {
        ++i;
        return true;
      }
    }
    return false;
  };
  std::string last;
  std::string root;  // first segment of the (possibly qualified) name
  bool qualified = false;
  for (;;) {
    std::string ident = read_ident();
    if (ident.empty()) return "";
    if (!qualified) root = ident;
    skip_ws();
    if (i + 1 < s.size() && s[i] == ':' && s[i + 1] == ':') {
      i += 2;
      qualified = true;
      continue;  // qualified name, keep reading
    }
    qualified = false;
    if (i < s.size() && s[i] == '(') {
      // A std::-qualified call is the standard library's, never one of the
      // repo's Status-returning functions that happens to share its name.
      last = root == "std" ? "" : ident;
      if (!skip_parens()) return "";
      skip_ws();
      if (i >= s.size()) return last;  // statement ends at the call
      if (s[i] == '.') {
        ++i;
        continue;
      }
      if (i + 1 < s.size() && s[i] == '-' && s[i + 1] == '>') {
        i += 2;
        continue;
      }
      return "";  // trailing operator: not a bare call statement
    }
    if (i < s.size() && s[i] == '.') {
      ++i;
      continue;
    }
    if (i + 1 < s.size() && s[i] == '-' && s[i + 1] == '>') {
      i += 2;
      continue;
    }
    return "";  // two adjacent identifiers (a declaration) or an operator
  }
}

}  // namespace dm::lint
