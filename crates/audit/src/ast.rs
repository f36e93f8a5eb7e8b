//! A small Rust AST, built by recursive descent over the [`crate::lexer`]
//! token stream.
//!
//! This is the engine's middle layer: where token checks pattern-match
//! raw tokens, the flow checks (`epoch-coherence`, `unordered-iter-flow`,
//! and the dataflow halves of `typed-units` and `no-wall-clock`) need
//! *structure* — which expression is an argument of which call, what a
//! `let` binds, where a function body ends. The parser is deliberately partial: it understands
//! items (fns, impls, mods, structs), statements, and the expression forms
//! the dataflow pass interprets, and degrades everything else to
//! [`Expr::Opaque`] without ever failing. Like the lexer, it must accept
//! any input the compiler might later reject — an auditor that panics on a
//! syntax error is worse than one that under-reports.

use crate::lexer::{Tok, TokKind};

/// A parsed source file: its top-level items.
#[derive(Debug, Default)]
pub struct File {
    /// Items in source order.
    pub items: Vec<Item>,
}

/// A top-level or nested item the rules care about.
#[derive(Debug)]
pub enum Item {
    /// A function definition (free or associated — see [`ImplDef`]).
    Fn(FnDef),
    /// An `impl` (or `trait`) block and the items inside it.
    Impl(ImplDef),
    /// The items of an inline `mod name { ... }` block.
    Mod(Vec<Item>),
    /// A struct definition with named fields.
    Struct(StructDef),
}

/// An `impl Type`, `impl Trait for Type`, or `trait Name` block.
#[derive(Debug)]
pub struct ImplDef {
    /// The implementing type's final path segment (`PageTable` for
    /// `impl<K> mem::PageTable<K>`); the trait name for `trait` items.
    pub type_name: String,
    /// Items inside the block.
    pub items: Vec<Item>,
}

/// A struct with named fields (tuple and unit structs parse to an empty
/// field list).
#[derive(Debug)]
pub struct StructDef {
    /// Struct name.
    pub name: String,
    /// `(field_name, identifiers appearing in the field's type)`.
    pub fields: Vec<(String, Vec<String>)>,
}

/// A function definition.
#[derive(Debug)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Parameters in order.
    pub params: Vec<Param>,
    /// Identifiers appearing in the return type (empty when none).
    pub ret: Vec<String>,
    /// The body; `None` for trait-method declarations.
    pub body: Option<Block>,
}

/// One function parameter.
#[derive(Debug)]
pub struct Param {
    /// Binding identifiers in the pattern (`self` for self params;
    /// several for destructuring patterns).
    pub pats: Vec<String>,
    /// Identifiers appearing in the type annotation.
    pub ty: Vec<String>,
}

/// A `{ ... }` block: statements plus an optional trailing expression
/// (the block's value).
#[derive(Debug, Default)]
pub struct Block {
    /// Statements in order.
    pub stmts: Vec<Stmt>,
    /// Trailing expression without a semicolon, if any (boxed to break
    /// the `Block`/`Expr` layout cycle).
    pub tail: Option<Box<Expr>>,
}

/// One statement.
#[derive(Debug)]
pub enum Stmt {
    /// `let <pats>[: ty] = init;`
    Let {
        /// Binding identifiers in the pattern.
        pats: Vec<String>,
        /// Identifiers in the type annotation (empty when inferred).
        ty: Vec<String>,
        /// Initializer, if present.
        init: Option<Expr>,
    },
    /// An expression statement (with or without `;`).
    Expr(Expr),
    /// A nested item (fn/struct/mod/impl inside a body).
    Item(Box<Item>),
}

/// One `match` arm.
#[derive(Debug)]
pub struct Arm {
    /// Binding identifiers in the arm's pattern(s).
    pub pats: Vec<String>,
    /// The arm body.
    pub body: Expr,
}

/// An expression. Every variant carries the 1-based line it starts on.
#[derive(Debug)]
pub enum Expr {
    /// A (possibly multi-segment) path: `x`, `self`, `Bytes::new`.
    Path {
        /// Path segments.
        segs: Vec<String>,
        /// Source line.
        line: u32,
    },
    /// Prefix `&`/`&mut`/`*`/`-`/`!`, or a cast `expr as Type` (the
    /// target type is not modelled).
    Unary {
        /// Operand.
        expr: Box<Expr>,
        /// Source line.
        line: u32,
    },
    /// Infix binary operation (including `..`/`..=` ranges).
    Binary {
        /// Operator text.
        op: String,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
        /// Source line.
        line: u32,
    },
    /// `lhs = rhs` or compound `lhs op= rhs`.
    Assign {
        /// `=`, `+=`, `-=`, ...
        op: String,
        /// Assignment target.
        lhs: Box<Expr>,
        /// Assigned value.
        rhs: Box<Expr>,
        /// Source line.
        line: u32,
    },
    /// `callee(args)` where callee is an arbitrary expression (usually a
    /// path).
    Call {
        /// Callee expression.
        callee: Box<Expr>,
        /// Arguments.
        args: Vec<Expr>,
        /// Source line.
        line: u32,
    },
    /// `recv.name::<T>(args)`.
    Method {
        /// Receiver expression.
        recv: Box<Expr>,
        /// Method name.
        name: String,
        /// Identifiers in the turbofish, when present.
        turbofish: Vec<String>,
        /// Arguments (receiver excluded).
        args: Vec<Expr>,
        /// Source line.
        line: u32,
    },
    /// `recv.name` (also tuple fields: name is `"0"`, `"1"`, ...).
    Field {
        /// Receiver expression.
        recv: Box<Expr>,
        /// Field name.
        name: String,
        /// Source line.
        line: u32,
    },
    /// `recv[idx]`.
    Index {
        /// Receiver expression.
        recv: Box<Expr>,
        /// Index expression.
        idx: Box<Expr>,
        /// Source line.
        line: u32,
    },
    /// `Path { field: expr, .. }`.
    StructLit {
        /// Path segments of the struct name.
        segs: Vec<String>,
        /// `(field_name, value)`; the functional-update base uses the
        /// field name `".."`.
        fields: Vec<(String, Expr)>,
        /// Source line.
        line: u32,
    },
    /// `name!(args)` — arguments are parsed best-effort as expressions.
    Macro {
        /// Macro name (last path segment).
        name: String,
        /// Parsed arguments.
        args: Vec<Expr>,
        /// Source line.
        line: u32,
    },
    /// A tuple `(a, b, ...)` or array `[a, b, ...]` / `[x; n]`.
    List {
        /// Elements.
        items: Vec<Expr>,
        /// Source line.
        line: u32,
    },
    /// A bare `{ ... }` block in expression position (incl. `unsafe`).
    BlockExpr {
        /// The block.
        block: Block,
        /// Source line.
        line: u32,
    },
    /// `if [let pat =] cond { then } [else ...]`.
    If {
        /// Binding identifiers when this is `if let`.
        pat: Vec<String>,
        /// Condition (the `let` scrutinee for `if let`).
        cond: Box<Expr>,
        /// Then-block.
        then: Block,
        /// `else` expression (a block or another `if`).
        else_: Option<Box<Expr>>,
        /// Source line.
        line: u32,
    },
    /// `match scrutinee { arms }`.
    Match {
        /// Scrutinee.
        scrutinee: Box<Expr>,
        /// Arms in order.
        arms: Vec<Arm>,
        /// Source line.
        line: u32,
    },
    /// `for pats in iter { body }`.
    For {
        /// Binding identifiers in the loop pattern.
        pats: Vec<String>,
        /// Iterated expression.
        iter: Box<Expr>,
        /// Loop body.
        body: Block,
        /// Source line.
        line: u32,
    },
    /// `while [let pat =] cond { body }`, or `loop { body }` with an
    /// opaque condition.
    While {
        /// Binding identifiers when this is `while let`.
        pat: Vec<String>,
        /// Condition.
        cond: Box<Expr>,
        /// Loop body.
        body: Block,
        /// Source line.
        line: u32,
    },
    /// `|params| body` / `move |params| body`.
    Closure {
        /// Parameter binding identifiers.
        params: Vec<String>,
        /// Closure body.
        body: Box<Expr>,
        /// Source line.
        line: u32,
    },
    /// `return [expr]`.
    Ret {
        /// Returned value, if any.
        expr: Option<Box<Expr>>,
        /// Source line.
        line: u32,
    },
    /// `break [expr]` (not a function-level escape — kept distinct from
    /// [`Expr::Ret`] so return-sinks don't fire on loop breaks).
    Break {
        /// Break value, if any.
        expr: Option<Box<Expr>>,
        /// Source line.
        line: u32,
    },
    /// A literal, or anything else the parser does not model.
    Opaque {
        /// Source line.
        line: u32,
    },
}

impl Expr {
    /// The 1-based line the expression starts on.
    pub fn line(&self) -> u32 {
        match self {
            Expr::Path { line, .. }
            | Expr::Unary { line, .. }
            | Expr::Binary { line, .. }
            | Expr::Assign { line, .. }
            | Expr::Call { line, .. }
            | Expr::Method { line, .. }
            | Expr::Field { line, .. }
            | Expr::Index { line, .. }
            | Expr::StructLit { line, .. }
            | Expr::Macro { line, .. }
            | Expr::List { line, .. }
            | Expr::BlockExpr { line, .. }
            | Expr::If { line, .. }
            | Expr::Match { line, .. }
            | Expr::For { line, .. }
            | Expr::While { line, .. }
            | Expr::Closure { line, .. }
            | Expr::Ret { line, .. }
            | Expr::Break { line, .. }
            | Expr::Opaque { line } => *line,
        }
    }

    /// When this is a plain single-segment path, its identifier.
    pub fn as_var(&self) -> Option<&str> {
        match self {
            Expr::Path { segs, .. } if segs.len() == 1 => Some(segs[0].as_str()),
            _ => None,
        }
    }
}

/// Parses a token stream (comments are skipped internally) into a [`File`].
pub fn parse(tokens: &[Tok]) -> File {
    let code: Vec<&Tok> = tokens.iter().filter(|t| !t.is_comment()).collect();
    let mut p = Parser { t: code, pos: 0 };
    File {
        items: p.parse_items(true),
    }
}

/// Item-starting keywords recognized inside blocks.
const ITEM_KEYWORDS: [&str; 10] = [
    "fn",
    "struct",
    "enum",
    "impl",
    "mod",
    "trait",
    "use",
    "static",
    "type",
    "macro_rules",
];

/// Keywords that can never be pattern bindings.
const NON_BINDING: [&str; 10] = [
    "mut", "ref", "box", "_", "true", "false", "if", "in", "as", "dyn",
];

struct Parser<'a> {
    t: Vec<&'a Tok>,
    pos: usize,
}

impl<'a> Parser<'a> {
    // ------------------------------------------------------- primitives --

    fn peek(&self) -> Option<&'a Tok> {
        self.t.get(self.pos).copied()
    }

    fn peek_at(&self, n: usize) -> Option<&'a Tok> {
        self.t.get(self.pos + n).copied()
    }

    fn line(&self) -> u32 {
        self.peek().map(|t| t.line).unwrap_or(0)
    }

    fn bump(&mut self) -> Option<&'a Tok> {
        let t = self.t.get(self.pos).copied();
        self.pos += 1;
        t
    }

    fn at_punct(&self, p: &str) -> bool {
        self.peek().is_some_and(|t| t.is_punct(p))
    }

    fn at_ident(&self, id: &str) -> bool {
        self.peek().is_some_and(|t| t.is_ident(id))
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if self.at_punct(p) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_ident(&mut self, id: &str) -> bool {
        if self.at_ident(id) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Skips one balanced `open ... close` group, assuming the cursor is on
    /// `open`. Tolerates EOF.
    fn skip_balanced(&mut self, open: &str, close: &str) {
        if !self.eat_punct(open) {
            return;
        }
        let mut depth = 1i32;
        while depth > 0 {
            match self.bump() {
                None => return,
                Some(t) if t.is_punct(open) => depth += 1,
                Some(t) if t.is_punct(close) => depth -= 1,
                _ => {}
            }
        }
    }

    /// Skips a `<...>` generic group (cursor on `<`), counting angles only
    /// at bracket depth 0 and treating `>=` as closing.
    fn skip_angles(&mut self) {
        if !self.eat_punct("<") {
            return;
        }
        let mut angle = 1i32;
        let mut brack = 0i32;
        while angle > 0 {
            let Some(t) = self.bump() else { return };
            if t.kind != TokKind::Punct {
                continue;
            }
            match t.text.as_str() {
                "(" | "[" | "{" => brack += 1,
                ")" | "]" | "}" => brack -= 1,
                "<" if brack == 0 => angle += 1,
                ">" | ">=" if brack == 0 => angle -= 1,
                _ => {}
            }
        }
    }

    /// Skips an attribute `#[...]` / `#![...]`, returning true when it
    /// mentions `cfg(test)`-style contents (unused today; the engine's
    /// line-range test detection is authoritative).
    fn skip_attr(&mut self) {
        if !self.eat_punct("#") {
            return;
        }
        self.eat_punct("!");
        self.skip_balanced("[", "]");
    }

    /// Consumes to the `;` ending a skipped item, respecting nesting.
    fn skip_to_semi(&mut self) {
        let mut depth = 0i32;
        while let Some(t) = self.peek() {
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => {
                        if depth == 0 {
                            return; // stray closer: let the caller see it
                        }
                        depth -= 1;
                    }
                    ";" if depth == 0 => {
                        self.pos += 1;
                        return;
                    }
                    _ => {}
                }
            }
            self.pos += 1;
        }
    }

    // ------------------------------------------------------------ items --

    /// Parses items until EOF (`top` true) or a closing `}`.
    fn parse_items(&mut self, top: bool) -> Vec<Item> {
        let mut items = Vec::new();
        loop {
            while self.at_punct("#") {
                self.skip_attr();
            }
            let Some(t) = self.peek() else { break };
            if t.is_punct("}") && !top {
                break;
            }
            if let Some(item) = self.parse_item() {
                items.push(item);
            }
        }
        items
    }

    /// Parses one item, or consumes one token on unrecognized input.
    fn parse_item(&mut self) -> Option<Item> {
        loop {
            if self.eat_ident("pub") {
                if self.at_punct("(") {
                    self.skip_balanced("(", ")");
                }
                continue;
            }
            if self.at_ident("unsafe") || self.at_ident("async") || self.at_ident("default") {
                self.pos += 1;
                continue;
            }
            if self.at_ident("extern") {
                self.pos += 1;
                if self.peek().is_some_and(|t| t.kind == TokKind::Str) {
                    self.pos += 1; // extern "C"
                }
                if self.at_punct("{") {
                    self.skip_balanced("{", "}");
                    return None;
                }
                if self.at_ident("crate") {
                    self.skip_to_semi();
                    return None;
                }
                continue;
            }
            if self.at_ident("const") {
                // `const fn` is a modifier; `const NAME: ...` is an item.
                if self.peek_at(1).is_some_and(|t| t.is_ident("fn")) {
                    self.pos += 1;
                    continue;
                }
                self.skip_to_semi();
                return None;
            }
            break;
        }
        let t = self.peek()?;
        if t.is_ident("fn") {
            return Some(Item::Fn(self.parse_fn()));
        }
        if t.is_ident("struct") {
            return self.parse_struct().map(Item::Struct);
        }
        if t.is_ident("impl") || t.is_ident("trait") {
            return Some(Item::Impl(self.parse_impl()));
        }
        if t.is_ident("mod") {
            return self.parse_mod().map(Item::Mod);
        }
        if t.is_ident("enum") || t.is_ident("union") {
            self.pos += 1;
            self.bump(); // name
            if self.at_punct("<") {
                self.skip_angles();
            }
            while !(self.at_punct("{") || self.at_punct(";")) && self.peek().is_some() {
                self.pos += 1;
            }
            if self.at_punct("{") {
                self.skip_balanced("{", "}");
            } else {
                self.eat_punct(";");
            }
            return None;
        }
        if t.is_ident("use") || t.is_ident("static") || t.is_ident("type") {
            self.skip_to_semi();
            return None;
        }
        if t.is_ident("macro_rules") {
            self.pos += 1;
            self.eat_punct("!");
            self.bump(); // name
            self.skip_balanced("{", "}");
            return None;
        }
        // Unrecognized: consume one token and keep going.
        self.pos += 1;
        None
    }

    fn parse_fn(&mut self) -> FnDef {
        let line = self.line();
        self.eat_ident("fn");
        let name = self
            .peek()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.clone())
            .unwrap_or_default();
        if !name.is_empty() {
            self.pos += 1;
        }
        if self.at_punct("<") {
            self.skip_angles();
        }
        let params = self.parse_params();
        let mut ret = Vec::new();
        if self.eat_punct("->") {
            let mut depth = 0i32;
            while let Some(t) = self.peek() {
                if t.kind == TokKind::Punct {
                    match t.text.as_str() {
                        "(" | "[" => depth += 1,
                        ")" | "]" => depth -= 1,
                        "{" | ";" if depth == 0 => break,
                        _ => {}
                    }
                } else if t.is_ident("where") && depth == 0 {
                    break;
                } else if t.kind == TokKind::Ident {
                    ret.push(t.text.clone());
                }
                self.pos += 1;
            }
        }
        if self.at_ident("where") {
            while !(self.at_punct("{") || self.at_punct(";")) && self.peek().is_some() {
                self.pos += 1;
            }
        }
        let body = if self.at_punct("{") {
            Some(self.parse_block())
        } else {
            self.eat_punct(";");
            None
        };
        FnDef {
            name,
            line,
            params,
            ret,
            body,
        }
    }

    fn parse_params(&mut self) -> Vec<Param> {
        let mut params = Vec::new();
        if !self.eat_punct("(") {
            return params;
        }
        let mut cur: Vec<&Tok> = Vec::new();
        let mut depth = 1i32;
        let mut angle = 0i32;
        while let Some(t) = self.bump() {
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    "<" => angle += 1,
                    ">" | ">=" => angle -= 1,
                    "," if depth == 1 && angle == 0 => {
                        if let Some(p) = param_from_tokens(&cur) {
                            params.push(p);
                        }
                        cur.clear();
                        continue;
                    }
                    _ => {}
                }
            }
            cur.push(t);
        }
        if let Some(p) = param_from_tokens(&cur) {
            params.push(p);
        }
        params
    }

    fn parse_struct(&mut self) -> Option<StructDef> {
        self.eat_ident("struct");
        let name = self.bump().map(|t| t.text.clone()).unwrap_or_default();
        if self.at_punct("<") {
            self.skip_angles();
        }
        if self.at_ident("where") {
            while !(self.at_punct("{") || self.at_punct(";")) && self.peek().is_some() {
                self.pos += 1;
            }
        }
        let mut fields = Vec::new();
        if self.at_punct("(") {
            self.skip_balanced("(", ")");
            self.eat_punct(";");
        } else if self.eat_punct("{") {
            loop {
                while self.at_punct("#") {
                    self.skip_attr();
                }
                if self.eat_punct("}") || self.peek().is_none() {
                    break;
                }
                if self.eat_ident("pub") && self.at_punct("(") {
                    self.skip_balanced("(", ")");
                }
                let Some(fname) = self.peek().filter(|t| t.kind == TokKind::Ident) else {
                    self.pos += 1;
                    continue;
                };
                let fname = fname.text.clone();
                self.pos += 1;
                if !self.eat_punct(":") {
                    continue;
                }
                let mut ty = Vec::new();
                let mut depth = 0i32;
                let mut angle = 0i32;
                while let Some(t) = self.peek() {
                    if t.kind == TokKind::Punct {
                        match t.text.as_str() {
                            "(" | "[" => depth += 1,
                            ")" | "]" => depth -= 1,
                            "<" => angle += 1,
                            ">" | ">=" => angle -= 1,
                            "," if depth == 0 && angle <= 0 => {
                                self.pos += 1;
                                break;
                            }
                            "}" if depth == 0 => break,
                            _ => {}
                        }
                    } else if t.kind == TokKind::Ident {
                        ty.push(t.text.clone());
                    }
                    self.pos += 1;
                }
                fields.push((fname, ty));
            }
        } else {
            self.eat_punct(";");
        }
        Some(StructDef { name, fields })
    }

    fn parse_impl(&mut self) -> ImplDef {
        let _ = self.eat_ident("impl") || self.eat_ident("trait");
        if self.at_punct("<") {
            self.skip_angles();
        }
        // Collect path segments up to `{` / `where`; an intervening `for`
        // restarts the collection (`impl Trait for Type`).
        let mut segs: Vec<String> = Vec::new();
        while let Some(t) = self.peek() {
            if t.is_punct("{") || t.is_ident("where") {
                break;
            }
            if t.is_ident("for") {
                segs.clear();
                self.pos += 1;
                continue;
            }
            if t.is_punct("<") {
                self.skip_angles();
                continue;
            }
            if t.kind == TokKind::Ident {
                segs.push(t.text.clone());
            }
            self.pos += 1;
        }
        if self.at_ident("where") {
            while !self.at_punct("{") && self.peek().is_some() {
                self.pos += 1;
            }
        }
        let type_name = segs.last().cloned().unwrap_or_default();
        let items = if self.eat_punct("{") {
            let items = self.parse_items(false);
            self.eat_punct("}");
            items
        } else {
            Vec::new()
        };
        ImplDef { type_name, items }
    }

    fn parse_mod(&mut self) -> Option<Vec<Item>> {
        self.eat_ident("mod");
        self.bump(); // name
        if !self.eat_punct("{") {
            return None; // `mod name;`
        }
        let items = self.parse_items(false);
        self.eat_punct("}");
        Some(items)
    }

    // ------------------------------------------------------- statements --

    /// Parses a `{ ... }` block (cursor on `{`).
    fn parse_block(&mut self) -> Block {
        let mut block = Block::default();
        if !self.eat_punct("{") {
            return block;
        }
        loop {
            while self.at_punct("#") {
                self.skip_attr();
            }
            let Some(t) = self.peek() else { break };
            if t.is_punct("}") {
                self.pos += 1;
                break;
            }
            if t.is_punct(";") {
                self.pos += 1;
                continue;
            }
            if t.is_ident("let") {
                block.stmts.push(self.parse_let());
                continue;
            }
            if t.is_ident("const") && !self.peek_at(1).is_some_and(|n| n.is_ident("fn")) {
                self.skip_to_semi();
                continue;
            }
            let item_start = ITEM_KEYWORDS.iter().any(|k| t.is_ident(k))
                || (t.is_ident("pub") && self.peek_at(1).is_some_and(|n| n.kind == TokKind::Ident));
            if item_start {
                if let Some(item) = self.parse_item() {
                    block.stmts.push(Stmt::Item(Box::new(item)));
                }
                continue;
            }
            let before = self.pos;
            let e = self.parse_expr(false);
            if self.pos == before {
                self.pos += 1; // safety: always make progress
                continue;
            }
            if self.eat_punct(";") {
                block.stmts.push(Stmt::Expr(e));
            } else if self.at_punct("}") || self.peek().is_none() {
                block.tail = Some(Box::new(e));
            } else {
                block.stmts.push(Stmt::Expr(e));
            }
        }
        block
    }

    fn parse_let(&mut self) -> Stmt {
        self.eat_ident("let");
        let pats = self.parse_pattern(&[":", "=", ";"]);
        let mut ty = Vec::new();
        if self.eat_punct(":") {
            let mut depth = 0i32;
            let mut angle = 0i32;
            while let Some(t) = self.peek() {
                if t.kind == TokKind::Punct {
                    match t.text.as_str() {
                        "(" | "[" => depth += 1,
                        ")" | "]" => depth -= 1,
                        "<" => angle += 1,
                        ">" | ">=" => angle -= 1,
                        "=" | ";" if depth == 0 && angle <= 0 => break,
                        _ => {}
                    }
                } else if t.kind == TokKind::Ident {
                    ty.push(t.text.clone());
                }
                self.pos += 1;
            }
        }
        let init = if self.eat_punct("=") {
            Some(self.parse_expr(false))
        } else {
            None
        };
        // let-else diverging tail.
        if self.eat_ident("else") && self.at_punct("{") {
            self.skip_balanced("{", "}");
        }
        self.eat_punct(";");
        Stmt::Let { pats, ty, init }
    }

    /// Collects binding identifiers of a pattern, consuming tokens until
    /// one of `stops` appears at bracket depth 0 (the stop token is not
    /// consumed). Heuristic: an identifier binds unless it is a keyword,
    /// starts a path (`seg::`), names a call (`Tuple(`), is a struct
    /// field key (`name:`), or is capitalized (an enum/struct name).
    fn parse_pattern(&mut self, stops: &[&str]) -> Vec<String> {
        let mut pats = Vec::new();
        let mut depth = 0i32;
        while let Some(t) = self.peek() {
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => {
                        if depth == 0 {
                            break;
                        }
                        depth -= 1;
                    }
                    s if depth == 0 && stops.contains(&s) => break,
                    _ => {}
                }
            } else if t.kind == TokKind::Ident {
                if depth == 0 && stops.contains(&t.text.as_str()) {
                    break;
                }
                let next = self.peek_at(1);
                let starts_path = next.is_some_and(|n| n.is_punct("::") || n.is_punct("("));
                let field_key = next.is_some_and(|n| n.is_punct(":")) && depth > 0;
                let capitalized = t
                    .text
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_uppercase());
                let keyword = NON_BINDING.contains(&t.text.as_str());
                if !starts_path && !field_key && !capitalized && !keyword {
                    pats.push(t.text.clone());
                }
            }
            self.pos += 1;
        }
        pats
    }

    // ------------------------------------------------------ expressions --

    /// Parses one expression. `ns` ("no struct") forbids struct literals,
    /// as Rust does in `if`/`while`/`match`/`for` head positions.
    fn parse_expr(&mut self, ns: bool) -> Expr {
        let line = self.line();
        let lhs = self.parse_range(ns);
        const ASSIGN_OPS: [&str; 8] = ["=", "+=", "-=", "*=", "/=", "%=", "<<=", ">>="];
        if let Some(t) = self.peek() {
            if t.kind == TokKind::Punct && ASSIGN_OPS.contains(&t.text.as_str()) {
                let op = t.text.clone();
                self.pos += 1;
                let rhs = self.parse_expr(ns);
                return Expr::Assign {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                    line,
                };
            }
        }
        lhs
    }

    fn expr_can_start(&self) -> bool {
        match self.peek() {
            None => false,
            Some(t) => match t.kind {
                TokKind::Punct => {
                    matches!(
                        t.text.as_str(),
                        "(" | "[" | "{" | "&" | "*" | "-" | "!" | "|" | "||"
                    )
                }
                TokKind::Ident => !matches!(t.text.as_str(), "in" | "else" | "where"),
                _ => true,
            },
        }
    }

    fn parse_range(&mut self, ns: bool) -> Expr {
        let line = self.line();
        let is_range = |p: &Self| p.at_punct("..") || p.at_punct("..=");
        let lhs = if is_range(self) {
            Expr::Opaque { line }
        } else {
            self.parse_binary(0, ns)
        };
        if !is_range(self) {
            return lhs;
        }
        let op = self.bump().map(|t| t.text.clone()).unwrap_or_default();
        let rhs = if self.expr_can_start() {
            self.parse_binary(0, ns)
        } else {
            Expr::Opaque { line }
        };
        Expr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
            line,
        }
    }

    /// Precedence-climbing binary parser. Levels, loosest first:
    /// `||`, `&&`, comparisons, `|`, `^`, `&`, `+ -`, `* / %`.
    fn parse_binary(&mut self, min_level: usize, ns: bool) -> Expr {
        const LEVELS: [&[&str]; 8] = [
            &["||"],
            &["&&"],
            &["==", "!=", "<", ">", "<=", ">="],
            &["|"],
            &["^"],
            &["&"],
            &["+", "-"],
            &["*", "/", "%"],
        ];
        if min_level >= LEVELS.len() {
            return self.parse_cast(ns);
        }
        let mut lhs = self.parse_binary(min_level + 1, ns);
        while let Some(t) = self.peek() {
            if t.kind != TokKind::Punct || !LEVELS[min_level].contains(&t.text.as_str()) {
                break;
            }
            let op = t.text.clone();
            let line = t.line;
            self.pos += 1;
            let rhs = self.parse_binary(min_level + 1, ns);
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                line,
            };
        }
        lhs
    }

    fn parse_cast(&mut self, ns: bool) -> Expr {
        let mut e = self.parse_unary(ns);
        while self.at_ident("as") {
            let line = self.line();
            self.pos += 1;
            // Skip the target type (paths, generics, raw pointers).
            while let Some(t) = self.peek() {
                let type_tok = (t.kind == TokKind::Ident
                    && !NON_BINDING.contains(&t.text.as_str()))
                    || ["::", "*"].iter().any(|p| t.is_punct(p))
                    || ["dyn", "const", "mut"].iter().any(|k| t.is_ident(k));
                if type_tok {
                    self.pos += 1;
                } else if t.is_punct("<") {
                    self.skip_angles();
                } else {
                    break;
                }
            }
            e = Expr::Unary {
                expr: Box::new(e),
                line,
            };
        }
        e
    }

    fn parse_unary(&mut self, ns: bool) -> Expr {
        let line = self.line();
        if self.at_punct("&") || self.at_punct("*") || self.at_punct("-") || self.at_punct("!") {
            self.pos += 1;
            self.eat_ident("mut");
            let inner = self.parse_unary(ns);
            return Expr::Unary {
                expr: Box::new(inner),
                line,
            };
        }
        self.parse_postfix(ns)
    }

    fn parse_postfix(&mut self, ns: bool) -> Expr {
        let mut e = self.parse_primary(ns);
        loop {
            if self.at_punct(".") {
                let line = self.line();
                self.pos += 1;
                let Some(t) = self.peek() else { break };
                if t.is_ident("await") {
                    self.pos += 1;
                    continue;
                }
                if t.kind == TokKind::Int {
                    let name = t.text.clone();
                    self.pos += 1;
                    e = Expr::Field {
                        recv: Box::new(e),
                        name,
                        line,
                    };
                    continue;
                }
                if t.kind == TokKind::Ident {
                    let name = t.text.clone();
                    self.pos += 1;
                    let mut turbofish = Vec::new();
                    if self.at_punct("::") && self.peek_at(1).is_some_and(|n| n.is_punct("<")) {
                        self.pos += 1;
                        turbofish = self.collect_angles_idents();
                    }
                    if self.at_punct("(") {
                        let args = self.parse_args();
                        e = Expr::Method {
                            recv: Box::new(e),
                            name,
                            turbofish,
                            args,
                            line,
                        };
                    } else {
                        e = Expr::Field {
                            recv: Box::new(e),
                            name,
                            line,
                        };
                    }
                    continue;
                }
                break;
            }
            if self.at_punct("(") {
                let line = self.line();
                let args = self.parse_args();
                e = Expr::Call {
                    callee: Box::new(e),
                    args,
                    line,
                };
                continue;
            }
            if self.at_punct("[") {
                let line = self.line();
                self.pos += 1;
                let idx = self.parse_expr(false);
                // consume to the matching `]`
                let mut depth = 1i32;
                while depth > 0 {
                    match self.bump() {
                        None => break,
                        Some(t) if t.is_punct("[") => depth += 1,
                        Some(t) if t.is_punct("]") => depth -= 1,
                        _ => {}
                    }
                }
                e = Expr::Index {
                    recv: Box::new(e),
                    idx: Box::new(idx),
                    line,
                };
                continue;
            }
            if self.at_punct("?") {
                self.pos += 1;
                continue;
            }
            break;
        }
        e
    }

    /// Parses a `( ... )` argument list (cursor on `(`).
    fn parse_args(&mut self) -> Vec<Expr> {
        let mut args = Vec::new();
        if !self.eat_punct("(") {
            return args;
        }
        loop {
            if self.eat_punct(")") || self.peek().is_none() {
                break;
            }
            let before = self.pos;
            args.push(self.parse_expr(false));
            if self.pos == before {
                self.pos += 1;
            }
            if !self.eat_punct(",") && !self.at_punct(")") {
                // Unparsable argument remainder: sync to `,` or `)`.
                let mut depth = 0i32;
                while let Some(t) = self.peek() {
                    if t.kind == TokKind::Punct {
                        match t.text.as_str() {
                            "(" | "[" | "{" => depth += 1,
                            ")" if depth == 0 => break,
                            ")" | "]" | "}" => depth -= 1,
                            "," if depth == 0 => break,
                            _ => {}
                        }
                    }
                    self.pos += 1;
                }
                self.eat_punct(",");
            }
        }
        args
    }

    /// Parses a `[a, b]` / `[x; n]` element list (cursor on `[`).
    fn parse_bracketed(&mut self) -> Vec<Expr> {
        self.pos += 1;
        let mut items = Vec::new();
        loop {
            if self.eat_punct("]") || self.peek().is_none() {
                break;
            }
            let before = self.pos;
            items.push(self.parse_expr(false));
            if self.pos == before {
                self.pos += 1;
            }
            if !self.eat_punct(",") {
                self.eat_punct(";"); // [x; n] repeat form
            }
        }
        items
    }

    /// Skips `<...>` collecting the identifiers inside (cursor on `<`).
    fn collect_angles_idents(&mut self) -> Vec<String> {
        let mut out = Vec::new();
        if !self.eat_punct("<") {
            return out;
        }
        let mut angle = 1i32;
        let mut brack = 0i32;
        while angle > 0 {
            let Some(t) = self.bump() else { break };
            match t.kind {
                TokKind::Ident => out.push(t.text.clone()),
                TokKind::Punct => match t.text.as_str() {
                    "(" | "[" | "{" => brack += 1,
                    ")" | "]" | "}" => brack -= 1,
                    "<" if brack == 0 => angle += 1,
                    ">" | ">=" if brack == 0 => angle -= 1,
                    _ => {}
                },
                _ => {}
            }
        }
        out
    }

    fn parse_primary(&mut self, ns: bool) -> Expr {
        let line = self.line();
        let Some(t) = self.peek() else {
            return Expr::Opaque { line };
        };
        match t.kind {
            TokKind::Int | TokKind::Float | TokKind::Str => {
                self.pos += 1;
                Expr::Opaque { line }
            }
            TokKind::Lifetime => {
                // Loop label `'a: loop { ... }` — consume and retry.
                self.pos += 1;
                if self.eat_punct(":") {
                    return self.parse_primary(ns);
                }
                Expr::Opaque { line }
            }
            TokKind::Punct => match t.text.as_str() {
                "(" => {
                    self.pos += 1;
                    let mut items = Vec::new();
                    let mut trailing_comma = false;
                    loop {
                        if self.eat_punct(")") || self.peek().is_none() {
                            break;
                        }
                        let before = self.pos;
                        items.push(self.parse_expr(false));
                        if self.pos == before {
                            self.pos += 1;
                        }
                        trailing_comma = self.eat_punct(",");
                    }
                    if items.len() == 1 && !trailing_comma {
                        items.pop().unwrap_or(Expr::Opaque { line })
                    } else {
                        Expr::List { items, line }
                    }
                }
                "[" => Expr::List {
                    items: self.parse_bracketed(),
                    line,
                },
                "{" => {
                    let block = self.parse_block();
                    Expr::BlockExpr { block, line }
                }
                "|" | "||" => self.parse_closure(),
                "#" => {
                    self.skip_attr();
                    self.parse_primary(ns)
                }
                _ => {
                    self.pos += 1;
                    Expr::Opaque { line }
                }
            },
            TokKind::Ident => self.parse_ident_expr(ns),
            // Comments are filtered out before parsing; defensive arm.
            TokKind::LineComment | TokKind::BlockComment => {
                self.pos += 1;
                Expr::Opaque { line }
            }
        }
    }

    fn parse_closure(&mut self) -> Expr {
        let line = self.line();
        let mut params = Vec::new();
        if self.eat_punct("||") {
            // zero-parameter closure
        } else if self.eat_punct("|") {
            // Parameters up to the closing `|`: patterns with optional
            // type annotations (annotation idents are skipped).
            while let Some(t) = self.peek() {
                if t.is_punct("|") {
                    self.pos += 1;
                    break;
                }
                let mut pats = self.parse_pattern(&[":", ",", "|"]);
                params.append(&mut pats);
                if self.eat_punct(":") {
                    let mut depth = 0i32;
                    while let Some(t) = self.peek() {
                        if t.kind == TokKind::Punct {
                            match t.text.as_str() {
                                "(" | "[" | "<" => depth += 1,
                                ")" | "]" | ">" | ">=" => depth -= 1,
                                "," | "|" if depth <= 0 => break,
                                _ => {}
                            }
                        }
                        self.pos += 1;
                    }
                }
                self.eat_punct(",");
            }
        }
        if self.eat_punct("->") {
            while !(self.at_punct("{") || self.peek().is_none()) {
                self.pos += 1;
            }
        }
        let body = self.parse_expr(false);
        Expr::Closure {
            params,
            body: Box::new(body),
            line,
        }
    }

    fn parse_ident_expr(&mut self, ns: bool) -> Expr {
        let line = self.line();
        let Some(t) = self.peek() else {
            return Expr::Opaque { line };
        };
        match t.text.as_str() {
            "if" => {
                self.pos += 1;
                let pat = if self.eat_ident("let") {
                    let p = self.parse_pattern(&["="]);
                    self.eat_punct("=");
                    p
                } else {
                    Vec::new()
                };
                let cond = self.parse_expr(true);
                let then = self.parse_block();
                let else_ = if self.eat_ident("else") {
                    if self.at_ident("if") {
                        Some(Box::new(self.parse_ident_expr(ns)))
                    } else {
                        let b = self.parse_block();
                        Some(Box::new(Expr::BlockExpr { block: b, line }))
                    }
                } else {
                    None
                };
                Expr::If {
                    pat,
                    cond: Box::new(cond),
                    then,
                    else_,
                    line,
                }
            }
            "match" => {
                self.pos += 1;
                let scrutinee = self.parse_expr(true);
                let mut arms = Vec::new();
                if self.eat_punct("{") {
                    loop {
                        while self.at_punct("#") {
                            self.skip_attr();
                        }
                        if self.eat_punct("}") || self.peek().is_none() {
                            break;
                        }
                        let pats = self.parse_pattern(&["=>"]);
                        // Arm guard: `pat if guard => ...` — the pattern
                        // parser stops at `if` only via `=>`; handle by
                        // consuming a guard expression when present.
                        if self.eat_ident("if") {
                            let _ = self.parse_expr(true);
                        }
                        if !self.eat_punct("=>") {
                            // Cannot find the arrow: resync to `}`.
                            while !(self.at_punct("}") || self.peek().is_none()) {
                                self.pos += 1;
                            }
                            continue;
                        }
                        let body = self.parse_expr(false);
                        arms.push(Arm { pats, body });
                        self.eat_punct(",");
                    }
                }
                Expr::Match {
                    scrutinee: Box::new(scrutinee),
                    arms,
                    line,
                }
            }
            "for" => {
                self.pos += 1;
                let pats = self.parse_pattern(&["in"]);
                self.eat_ident("in");
                let iter = self.parse_expr(true);
                let body = self.parse_block();
                Expr::For {
                    pats,
                    iter: Box::new(iter),
                    body,
                    line,
                }
            }
            "while" => {
                self.pos += 1;
                let pat = if self.eat_ident("let") {
                    let p = self.parse_pattern(&["="]);
                    self.eat_punct("=");
                    p
                } else {
                    Vec::new()
                };
                let cond = self.parse_expr(true);
                let body = self.parse_block();
                Expr::While {
                    pat,
                    cond: Box::new(cond),
                    body,
                    line,
                }
            }
            "loop" => {
                self.pos += 1;
                let body = self.parse_block();
                Expr::While {
                    pat: Vec::new(),
                    cond: Box::new(Expr::Opaque { line }),
                    body,
                    line,
                }
            }
            "unsafe" | "async" => {
                self.pos += 1;
                if self.at_punct("{") {
                    let block = self.parse_block();
                    Expr::BlockExpr { block, line }
                } else {
                    Expr::Opaque { line }
                }
            }
            "return" => {
                self.pos += 1;
                let expr = if self.expr_can_start() && !self.at_punct("{") {
                    Some(Box::new(self.parse_expr(ns)))
                } else {
                    None
                };
                Expr::Ret { expr, line }
            }
            "break" => {
                self.pos += 1;
                if self.peek().is_some_and(|t| t.kind == TokKind::Lifetime) {
                    self.pos += 1;
                }
                let expr = if self.expr_can_start() && !self.at_punct("{") {
                    Some(Box::new(self.parse_expr(ns)))
                } else {
                    None
                };
                Expr::Break { expr, line }
            }
            "continue" => {
                self.pos += 1;
                if self.peek().is_some_and(|t| t.kind == TokKind::Lifetime) {
                    self.pos += 1;
                }
                Expr::Opaque { line }
            }
            "move" => {
                self.pos += 1;
                if self.at_punct("|") || self.at_punct("||") {
                    self.parse_closure()
                } else {
                    Expr::Opaque { line }
                }
            }
            _ => {
                // Path expression: segments joined by `::`, with optional
                // turbofish groups skipped in place.
                let mut segs = vec![t.text.clone()];
                self.pos += 1;
                loop {
                    if self.at_punct("::") {
                        if self.peek_at(1).is_some_and(|n| n.is_punct("<")) {
                            self.pos += 1;
                            self.skip_angles();
                            continue;
                        }
                        if self.peek_at(1).is_some_and(|n| n.kind == TokKind::Ident) {
                            self.pos += 1;
                            if let Some(seg) = self.bump() {
                                segs.push(seg.text.clone());
                            }
                            continue;
                        }
                    }
                    break;
                }
                if self.at_punct("!") {
                    // Macro invocation.
                    self.pos += 1;
                    let name = segs.last().cloned().unwrap_or_default();
                    let args = if self.at_punct("(") {
                        self.parse_args()
                    } else if self.at_punct("[") {
                        self.parse_bracketed()
                    } else {
                        self.skip_balanced("{", "}");
                        Vec::new()
                    };
                    return Expr::Macro { name, args, line };
                }
                if !ns && self.at_punct("{") && self.looks_like_struct_lit() {
                    return self.parse_struct_lit(segs, line);
                }
                Expr::Path { segs, line }
            }
        }
    }

    /// Lookahead after a path at `{`: does this read as a struct literal?
    fn looks_like_struct_lit(&self) -> bool {
        let Some(n1) = self.peek_at(1) else {
            return false;
        };
        if n1.is_punct("}") || n1.is_punct("..") {
            return true;
        }
        if n1.kind == TokKind::Ident {
            return self
                .peek_at(2)
                .is_some_and(|n2| n2.is_punct(":") || n2.is_punct(",") || n2.is_punct("}"));
        }
        false
    }

    fn parse_struct_lit(&mut self, segs: Vec<String>, line: u32) -> Expr {
        let mut fields = Vec::new();
        self.eat_punct("{");
        loop {
            if self.eat_punct("}") || self.peek().is_none() {
                break;
            }
            if self.eat_punct("..") {
                let base = self.parse_expr(false);
                fields.push(("..".to_string(), base));
                continue;
            }
            let Some(t) = self.peek() else { break };
            if t.kind != TokKind::Ident {
                self.pos += 1;
                continue;
            }
            let fname = t.text.clone();
            let fline = t.line;
            self.pos += 1;
            if self.eat_punct(":") {
                let val = self.parse_expr(false);
                fields.push((fname, val));
            } else {
                // Shorthand `Foo { name }`.
                fields.push((
                    fname.clone(),
                    Expr::Path {
                        segs: vec![fname],
                        line: fline,
                    },
                ));
            }
            self.eat_punct(",");
        }
        Expr::StructLit { segs, fields, line }
    }
}

/// Builds a [`Param`] from the raw tokens of one parameter.
fn param_from_tokens(toks: &[&Tok]) -> Option<Param> {
    if toks.is_empty() {
        return None;
    }
    if let Some(colon) = split_colon(toks) {
        let mut pats = Vec::new();
        for (i, t) in toks[..colon].iter().enumerate() {
            if t.kind == TokKind::Ident
                && !NON_BINDING.contains(&t.text.as_str())
                && !toks
                    .get(i + 1)
                    .is_some_and(|n| n.is_punct("::") || n.is_punct("("))
            {
                pats.push(t.text.clone());
            }
        }
        let ty = toks[colon + 1..]
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.clone())
            .collect();
        Some(Param { pats, ty })
    } else if toks.iter().any(|t| t.is_ident("self")) {
        Some(Param {
            pats: vec!["self".to_string()],
            ty: Vec::new(),
        })
    } else {
        None
    }
}

/// Index of the pattern/type `:` separator at bracket depth 0.
fn split_colon(toks: &[&Tok]) -> Option<usize> {
    let mut depth = 0i32;
    for (i, t) in toks.iter().enumerate() {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" | "[" | "{" | "<" => depth += 1,
                ")" | "]" | "}" | ">" => depth -= 1,
                ":" if depth == 0 => return Some(i),
                _ => {}
            }
        }
    }
    None
}

// ------------------------------------------------------------- visitors --

/// Calls `f` on `expr` and every sub-expression, pre-order.
pub fn walk_expr<'a>(expr: &'a Expr, f: &mut dyn FnMut(&'a Expr)) {
    f(expr);
    match expr {
        Expr::Path { .. } | Expr::Opaque { .. } => {}
        Expr::Unary { expr, .. } => walk_expr(expr, f),
        Expr::Binary { lhs, rhs, .. } | Expr::Assign { lhs, rhs, .. } => {
            walk_expr(lhs, f);
            walk_expr(rhs, f);
        }
        Expr::Call { callee, args, .. } => {
            walk_expr(callee, f);
            for a in args {
                walk_expr(a, f);
            }
        }
        Expr::Method { recv, args, .. } => {
            walk_expr(recv, f);
            for a in args {
                walk_expr(a, f);
            }
        }
        Expr::Field { recv, .. } => walk_expr(recv, f),
        Expr::Index { recv, idx, .. } => {
            walk_expr(recv, f);
            walk_expr(idx, f);
        }
        Expr::StructLit { fields, .. } => {
            for (_, e) in fields {
                walk_expr(e, f);
            }
        }
        Expr::Macro { args, .. } | Expr::List { items: args, .. } => {
            for a in args {
                walk_expr(a, f);
            }
        }
        Expr::BlockExpr { block, .. } => walk_block(block, f),
        Expr::If {
            cond, then, else_, ..
        } => {
            walk_expr(cond, f);
            walk_block(then, f);
            if let Some(e) = else_ {
                walk_expr(e, f);
            }
        }
        Expr::Match {
            scrutinee, arms, ..
        } => {
            walk_expr(scrutinee, f);
            for a in arms {
                walk_expr(&a.body, f);
            }
        }
        Expr::For { iter, body, .. } => {
            walk_expr(iter, f);
            walk_block(body, f);
        }
        Expr::While { cond, body, .. } => {
            walk_expr(cond, f);
            walk_block(body, f);
        }
        Expr::Closure { body, .. } => walk_expr(body, f),
        Expr::Ret { expr, .. } | Expr::Break { expr, .. } => {
            if let Some(e) = expr {
                walk_expr(e, f);
            }
        }
    }
}

/// Calls `f` on every expression in `block`, pre-order.
pub fn walk_block<'a>(block: &'a Block, f: &mut dyn FnMut(&'a Expr)) {
    for s in &block.stmts {
        match s {
            Stmt::Let { init: Some(e), .. } => walk_expr(e, f),
            Stmt::Let { .. } => {}
            Stmt::Expr(e) => walk_expr(e, f),
            Stmt::Item(item) => walk_item(item, f),
        }
    }
    if let Some(t) = block.tail.as_deref() {
        walk_expr(t, f);
    }
}

/// Calls `f` on `block` and every block nested inside it (branch bodies,
/// loop bodies, bare block expressions), pre-order.
pub fn walk_blocks<'a>(block: &'a Block, f: &mut dyn FnMut(&'a Block)) {
    f(block);
    walk_block(block, &mut |e| match e {
        Expr::BlockExpr { block, .. } => f(block),
        Expr::If { then, .. } => f(then),
        Expr::For { body, .. } | Expr::While { body, .. } => f(body),
        _ => {}
    });
}

/// Calls `f` on every expression under `item`, pre-order.
pub fn walk_item<'a>(item: &'a Item, f: &mut dyn FnMut(&'a Expr)) {
    match item {
        Item::Fn(fd) => {
            if let Some(b) = &fd.body {
                walk_block(b, f);
            }
        }
        Item::Impl(i) => {
            for it in &i.items {
                walk_item(it, f);
            }
        }
        Item::Mod(items) => {
            for it in items {
                walk_item(it, f);
            }
        }
        Item::Struct(_) => {}
    }
}

/// Iterates every function in `file` with its enclosing impl type (if
/// any), including functions nested in mods and impls.
pub fn for_each_fn<'a>(file: &'a File, f: &mut dyn FnMut(Option<&'a str>, &'a FnDef)) {
    fn rec<'a>(
        items: &'a [Item],
        impl_ty: Option<&'a str>,
        f: &mut dyn FnMut(Option<&'a str>, &'a FnDef),
    ) {
        for item in items {
            match item {
                Item::Fn(fd) => f(impl_ty, fd),
                Item::Impl(i) => rec(&i.items, Some(i.type_name.as_str()), f),
                Item::Mod(items) => rec(items, impl_ty, f),
                Item::Struct(_) => {}
            }
        }
    }
    rec(&file.items, None, f);
}

/// Iterates every struct definition in `file`, including nested ones.
pub fn for_each_struct<'a>(file: &'a File, f: &mut dyn FnMut(&'a StructDef)) {
    fn rec<'a>(items: &'a [Item], f: &mut dyn FnMut(&'a StructDef)) {
        for item in items {
            match item {
                Item::Struct(s) => f(s),
                Item::Impl(i) => rec(&i.items, f),
                Item::Mod(items) => rec(items, f),
                Item::Fn(_) => {}
            }
        }
    }
    rec(&file.items, f);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn file(src: &str) -> File {
        parse(&lex(src))
    }

    fn first_fn(f: &File) -> &FnDef {
        fn rec(items: &[Item]) -> Option<&FnDef> {
            for item in items {
                match item {
                    Item::Fn(fd) => return Some(fd),
                    Item::Impl(i) => {
                        if let Some(fd) = rec(&i.items) {
                            return Some(fd);
                        }
                    }
                    Item::Mod(items) => {
                        if let Some(fd) = rec(items) {
                            return Some(fd);
                        }
                    }
                    Item::Struct(_) => {}
                }
            }
            None
        }
        rec(&f.items).expect("a fn")
    }

    #[test]
    fn parses_fn_with_params_and_ret() {
        let f = file("pub fn alloc(&mut self, bytes: Bytes, n: u64) -> Option<Pages> { None }");
        let fd = first_fn(&f);
        assert_eq!(fd.name, "alloc");
        assert_eq!(fd.params.len(), 3);
        assert_eq!(fd.params[0].pats, vec!["self"]);
        assert_eq!(fd.params[1].pats, vec!["bytes"]);
        assert_eq!(fd.params[1].ty, vec!["Bytes"]);
        assert!(fd.ret.contains(&"Pages".to_string()));
        assert!(fd.body.is_some());
    }

    #[test]
    fn impl_blocks_attach_type_names() {
        let f = file("impl PageTable { fn unmap(&mut self) {} }\nimpl Rule for WallClock { fn name(&self) {} }");
        let mut seen = Vec::new();
        for_each_fn(&f, &mut |ty, fd| {
            seen.push((ty.map(str::to_string), fd.name.clone()))
        });
        assert_eq!(
            seen,
            vec![
                (Some("PageTable".into()), "unmap".into()),
                (Some("WallClock".into()), "name".into())
            ]
        );
    }

    #[test]
    fn struct_fields_carry_type_idents() {
        let f = file("pub struct T { pub entries: RadixTable<Pte>, epoch: u64 }");
        let mut names = Vec::new();
        for_each_struct(&f, &mut |s| {
            names = s.fields.clone();
        });
        assert_eq!(names.len(), 2);
        assert_eq!(names[0].0, "entries");
        assert!(names[0].1.contains(&"RadixTable".to_string()));
        assert_eq!(names[1].0, "epoch");
    }

    #[test]
    fn let_and_method_chain() {
        let f = file("fn f(m: M) { let x = m.iter().map(|v| v).collect(); }");
        let fd = first_fn(&f);
        let body = fd.body.as_ref().unwrap();
        let Stmt::Let { pats, init, .. } = &body.stmts[0] else {
            panic!("let");
        };
        assert_eq!(pats, &vec!["x".to_string()]);
        let Some(Expr::Method { name, recv, .. }) = init.as_ref() else {
            panic!("method chain");
        };
        assert_eq!(name, "collect");
        let Expr::Method { name: m2, .. } = recv.as_ref() else {
            panic!("map");
        };
        assert_eq!(m2, "map");
    }

    #[test]
    fn for_loop_and_push() {
        let f = file("fn f(m: M) { for (k, v) in m.iter() { out.push(v); } }");
        let fd = first_fn(&f);
        let body = fd.body.as_ref().unwrap();
        let Some(Expr::For { pats, body: b, .. }) = body.tail.as_deref() else {
            panic!("for");
        };
        assert_eq!(pats, &vec!["k".to_string(), "v".to_string()]);
        let Stmt::Expr(Expr::Method { name, args, .. }) = &b.stmts[0] else {
            panic!("push");
        };
        assert_eq!(name, "push");
        assert_eq!(args.len(), 1);
    }

    #[test]
    fn assignment_to_field() {
        let f = file("fn f(&mut self) { self.epoch = self.epoch.saturating_add(1); }");
        let fd = first_fn(&f);
        let body = fd.body.as_ref().unwrap();
        let Stmt::Expr(Expr::Assign { op, lhs, .. }) = &body.stmts[0] else {
            panic!("assign");
        };
        assert_eq!(op, "=");
        let Expr::Field { name, .. } = lhs.as_ref() else {
            panic!("field lhs");
        };
        assert_eq!(name, "epoch");
    }

    #[test]
    fn struct_literal_and_if_cond_restriction() {
        let f = file("fn f() -> P { if x { P { a: 1 } } else { P { a: 2 } } }");
        let fd = first_fn(&f);
        let tail = fd.body.as_ref().unwrap().tail.as_deref().unwrap();
        let Expr::If { cond, then, .. } = tail else {
            panic!("if, got {tail:?}");
        };
        assert!(matches!(cond.as_ref(), Expr::Path { .. }));
        assert!(matches!(then.tail.as_deref(), Some(Expr::StructLit { .. })));
    }

    #[test]
    fn tuple_field_access_and_call() {
        let f = file("fn f(p: (u64, u64)) -> u64 { g(p.0) }");
        let fd = first_fn(&f);
        let tail = fd.body.as_ref().unwrap().tail.as_deref().unwrap();
        let Expr::Call { args, .. } = tail else {
            panic!("call");
        };
        let Expr::Field { name, .. } = &args[0] else {
            panic!("tuple field");
        };
        assert_eq!(name, "0");
    }

    #[test]
    fn turbofish_collect_records_type() {
        let f = file("fn f(m: M) { let v = m.keys().collect::<Vec<u64>>(); }");
        let fd = first_fn(&f);
        let Stmt::Let { init, .. } = &fd.body.as_ref().unwrap().stmts[0] else {
            panic!("let");
        };
        let Some(Expr::Method {
            name, turbofish, ..
        }) = init.as_ref()
        else {
            panic!("collect");
        };
        assert_eq!(name, "collect");
        assert!(turbofish.contains(&"Vec".to_string()));
    }

    #[test]
    fn macros_parse_args() {
        let f = file(r#"fn f() { writeln!(out, "x {}", v).ok(); }"#);
        let fd = first_fn(&f);
        let mut macro_args = 0;
        walk_block(fd.body.as_ref().unwrap(), &mut |e| {
            if let Expr::Macro { name, args, .. } = e {
                assert_eq!(name, "writeln");
                macro_args = args.len();
            }
        });
        assert_eq!(macro_args, 3);
    }

    #[test]
    fn match_arms_bind_patterns() {
        let f = file("fn f(x: Option<u64>) -> u64 { match x { Some(v) => v, None => 0 } }");
        let fd = first_fn(&f);
        let Some(Expr::Match { arms, .. }) = fd.body.as_ref().unwrap().tail.as_deref() else {
            panic!("match");
        };
        assert_eq!(arms.len(), 2);
        assert_eq!(arms[0].pats, vec!["v".to_string()]);
        assert!(arms[1].pats.is_empty());
    }

    #[test]
    fn if_let_binds() {
        let f = file("fn f(x: Option<u64>) { if let Some(v) = x { g(v); } }");
        let fd = first_fn(&f);
        let Some(Expr::If { pat, .. }) = fd.body.as_ref().unwrap().tail.as_deref() else {
            panic!("if let");
        };
        assert_eq!(pat, &vec!["v".to_string()]);
    }

    #[test]
    fn mods_nest_and_breaks_are_not_returns() {
        let f = file("mod inner { pub fn g() { loop { break 1; } } }");
        let mut names = Vec::new();
        for_each_fn(&f, &mut |_, fd| names.push(fd.name.clone()));
        assert_eq!(names, vec!["g".to_string()]);
        let mut saw_break = false;
        for item in &f.items {
            walk_item(item, &mut |e| {
                if matches!(e, Expr::Break { .. }) {
                    saw_break = true;
                }
            });
        }
        assert!(saw_break);
    }

    #[test]
    fn malformed_input_never_panics() {
        for src in [
            "fn f( {",
            "impl {",
            "fn",
            "struct S { x: }",
            "fn f() { let = ; }",
            "fn f() { a.b.( }",
            "match {",
            "fn f() { x + }",
        ] {
            let _ = file(src);
        }
    }

    #[test]
    fn ranges_and_casts() {
        let f = file("fn f(n: u64) { for i in 0..n { g(i as usize); } }");
        let fd = first_fn(&f);
        let Some(Expr::For { iter, body, .. }) = fd.body.as_ref().unwrap().tail.as_deref() else {
            panic!("for");
        };
        assert!(matches!(iter.as_ref(), Expr::Binary { op, .. } if op == ".."));
        let Stmt::Expr(Expr::Call { args, .. }) = &body.stmts[0] else {
            panic!("call");
        };
        assert!(matches!(&args[0], Expr::Unary { expr, .. } if expr.as_var() == Some("i")));
    }
}
