//! The standard rewrite passes and the shared context-width walker.
//!
//! # The context walker
//!
//! The simulator evaluates every expression position at a *statically
//! determined* context width (`ctx` of [`uvllm_sim::eval::eval`]):
//! assignment right-hand sides at the target width, comparison
//! operands at `max(a.width, b.width)`, shift amounts and logical /
//! reduction operands self-determined, and so on. [`rewrite_exprs`]
//! replays exactly those rules while handing each node to a rewrite
//! callback, so a pass can prove at rewrite time that a replacement
//! evaluates identically at runtime. `eval.rs` is the normative
//! source for the rules; the unit tests cross-check a few of the
//! subtle ones (shift amounts, comparison contexts) against it.

use uvllm_sim::elab::{
    expr_signals, stmt_read_signals, stmt_written_signals, Design, LExpr, LExprKind, LStmt,
    LTarget, SignalId, Trigger,
};
use uvllm_sim::eval::{eval, ValueReader};
use uvllm_sim::logic::{mask, Logic, Tri};
use uvllm_verilog::ast::{BinaryOp, UnaryOp};

use crate::Pass;

// ---------------------------------------------------------------------------
// Context-width walker
// ---------------------------------------------------------------------------

/// Context widths of a binary node's operands when the node itself is
/// evaluated in context `w = max(ctx, node.width, 1)`. Mirrors
/// `eval_binary`'s call sites in `eval.rs`.
fn binary_operand_ctx(op: BinaryOp, a: &LExpr, b: &LExpr, w: u32) -> (u32, u32) {
    use BinaryOp::*;
    match op {
        Add | Sub | Mul | Div | Mod | BitAnd | BitOr | BitXor | BitXnor => (w, w),
        Pow | Shl | Shr | AShr => (w, b.width),
        Lt | Le | Gt | Ge | Eq | Ne | CaseEq | CaseNe => {
            let ow = a.width.max(b.width);
            (ow, ow)
        }
        LogAnd | LogOr => (a.width, b.width),
    }
}

/// Context width of a unary node's operand (see `eval.rs`): logical
/// not and reductions are self-determined, the rest inherit `w`.
fn unary_operand_ctx(op: UnaryOp, a: &LExpr, w: u32) -> u32 {
    use UnaryOp::*;
    match op {
        LogNot | RedAnd | RedOr | RedXor | RedNand | RedNor | RedXnor => a.width,
        BitNot | Neg | Plus => w,
    }
}

/// Post-order walk of `e` at context `ctx`, calling `f(node, ctx)` on
/// every node after its children. `f` may rewrite the node in place;
/// replacements are not re-visited.
fn rewrite_expr(e: &mut LExpr, ctx: u32, f: &mut impl FnMut(&mut LExpr, u32)) {
    let w = ctx.max(e.width).max(1);
    match &mut e.kind {
        LExprKind::Const(_) | LExprKind::Sig(_) | LExprKind::PartSel(_, _) => {}
        LExprKind::Word(_, index) | LExprKind::BitSel(_, index) => {
            let ictx = index.width;
            rewrite_expr(index, ictx, f);
        }
        LExprKind::Unary(op, a) => {
            let actx = unary_operand_ctx(*op, a, w);
            rewrite_expr(a, actx, f);
        }
        LExprKind::Binary(op, a, b) => {
            let (actx, bctx) = binary_operand_ctx(*op, a, b, w);
            rewrite_expr(a, actx, f);
            rewrite_expr(b, bctx, f);
        }
        LExprKind::Ternary(c, t, fb) => {
            let cctx = c.width;
            rewrite_expr(c, cctx, f);
            rewrite_expr(t, w, f);
            rewrite_expr(fb, w, f);
        }
        LExprKind::Concat(items) => {
            for item in items {
                let ictx = item.width;
                rewrite_expr(item, ictx, f);
            }
        }
    }
    f(e, ctx);
}

/// Walks every expression of `s` with its static context width (see
/// module docs) and lets `f` rewrite nodes in place. Target index
/// expressions are included (self-determined, like the simulator).
pub(crate) fn rewrite_exprs(design: &Design, s: &mut LStmt, f: &mut impl FnMut(&mut LExpr, u32)) {
    match s {
        LStmt::Block(stmts) => {
            for stmt in stmts {
                rewrite_exprs(design, stmt, f);
            }
        }
        LStmt::Assign { lhs, rhs, .. } => {
            rewrite_target_indices(lhs, f);
            let ctx = lhs.width(design);
            rewrite_expr(rhs, ctx, f);
        }
        LStmt::If { cond, then_branch, else_branch, .. } => {
            let cctx = cond.width;
            rewrite_expr(cond, cctx, f);
            rewrite_exprs(design, then_branch, f);
            if let Some(eb) = else_branch {
                rewrite_exprs(design, eb, f);
            }
        }
        LStmt::Case { expr, arms, default, .. } => {
            let sctx = expr.width;
            rewrite_expr(expr, sctx, f);
            for (labels, body) in arms {
                for label in labels {
                    let lctx = label.width;
                    rewrite_expr(label, lctx, f);
                }
                rewrite_exprs(design, body, f);
            }
            if let Some(d) = default {
                rewrite_exprs(design, d, f);
            }
        }
        LStmt::Nop => {}
    }
}

fn rewrite_target_indices(t: &mut LTarget, f: &mut impl FnMut(&mut LExpr, u32)) {
    match t {
        LTarget::Whole(_) | LTarget::Part(_, _, _) => {}
        LTarget::Bit(_, index) | LTarget::Word(_, index) => {
            let ictx = index.width;
            rewrite_expr(index, ictx, f);
        }
        LTarget::Concat(parts) => {
            for part in parts {
                rewrite_target_indices(part, f);
            }
        }
    }
}

/// Number of expression nodes (blowup guard for inlining).
fn expr_size(e: &LExpr) -> u32 {
    1 + match &e.kind {
        LExprKind::Const(_) | LExprKind::Sig(_) | LExprKind::PartSel(_, _) => 0,
        LExprKind::Word(_, i) | LExprKind::BitSel(_, i) => expr_size(i),
        LExprKind::Unary(_, a) => expr_size(a),
        LExprKind::Binary(_, a, b) => expr_size(a) + expr_size(b),
        LExprKind::Ternary(c, t, f) => expr_size(c) + expr_size(t) + expr_size(f),
        LExprKind::Concat(items) => items.iter().map(expr_size).sum(),
    }
}

fn expr_has_signals(e: &LExpr) -> bool {
    match &e.kind {
        LExprKind::Const(_) => false,
        LExprKind::Sig(_) | LExprKind::PartSel(_, _) => true,
        LExprKind::Word(_, _) | LExprKind::BitSel(_, _) => true,
        LExprKind::Unary(_, a) => expr_has_signals(a),
        LExprKind::Binary(_, a, b) => expr_has_signals(a) || expr_has_signals(b),
        LExprKind::Ternary(c, t, f) => {
            expr_has_signals(c) || expr_has_signals(t) || expr_has_signals(f)
        }
        LExprKind::Concat(items) => items.iter().any(expr_has_signals),
    }
}

// ---------------------------------------------------------------------------
// Constant folding
// ---------------------------------------------------------------------------

/// Reader for signal-free expressions; folding never consults it.
struct NoSignals;

impl ValueReader for NoSignals {
    fn read(&self, _: SignalId) -> Logic {
        unreachable!("const folding only evaluates signal-free subtrees")
    }
    fn read_word(&self, _: SignalId, _: u64) -> Logic {
        unreachable!("const folding only evaluates signal-free subtrees")
    }
    fn word_count(&self, _: SignalId) -> u64 {
        unreachable!("const folding only evaluates signal-free subtrees")
    }
    fn width(&self, _: SignalId) -> u32 {
        unreachable!("const folding only evaluates signal-free subtrees")
    }
}

/// Folds signal-free subtrees to constants and applies the two
/// four-state-sound masking identities (`x & 0 → 0`, `x | 1…1 → 1…1`);
/// prunes `if` statements whose condition is a fully-known constant.
///
/// Each fold evaluates the subtree with the *runtime's own* evaluator
/// at the position's static context width, so the replacement constant
/// is exact, X-propagation included. Value-preserving identities that
/// are NOT four-state sound (`x + 0 → x`, `x * 0 → 0`: an X in `x`
/// poisons the whole result at runtime) are deliberately absent.
pub struct ConstFold;

impl Pass for ConstFold {
    fn name(&self) -> &'static str {
        "const_fold"
    }

    fn run(&self, design: &mut Design) -> u64 {
        let mut folds = 0u64;
        let mut processes = std::mem::take(design.processes_mut());
        for process in &mut processes {
            rewrite_exprs(design, &mut process.body, &mut |e, ctx| {
                folds += fold_node(e, ctx);
            });
            folds += prune_const_branches(&mut process.body);
        }
        *design.processes_mut() = processes;
        folds
    }
}

/// Folds one node (children already folded); returns rewrites done.
fn fold_node(e: &mut LExpr, ctx: u32) -> u64 {
    if matches!(e.kind, LExprKind::Const(_)) {
        return 0;
    }
    let w = ctx.max(e.width).max(1);
    if !expr_has_signals(e) {
        // The runtime evaluates this position at exactly `ctx`, so the
        // widened constant (width `w ≥ e.width`) replays bit-for-bit.
        let value = eval(&NoSignals, e, ctx);
        *e = LExpr { kind: LExprKind::Const(value), width: w };
        return 1;
    }
    if let LExprKind::Binary(op, a, b) = &e.kind {
        let folded = match op {
            // 0 & x = 0 for every four-state x (operands evaluated at w;
            // a known all-zero constant zero-extends to zero).
            BinaryOp::BitAnd if is_known_zero(a) || is_known_zero(b) => Some(Logic::zeros(w)),
            // 1 | x = 1 — but only when the constant covers all w bits.
            BinaryOp::BitOr if is_known_ones(a, w) || is_known_ones(b, w) => Some(Logic::ones(w)),
            _ => None,
        };
        if let Some(value) = folded {
            *e = LExpr { kind: LExprKind::Const(value), width: w };
            return 1;
        }
    }
    0
}

fn is_known_zero(e: &LExpr) -> bool {
    matches!(&e.kind, LExprKind::Const(l) if l.xz() == 0 && l.val() == 0)
}

fn is_known_ones(e: &LExpr, w: u32) -> bool {
    matches!(&e.kind, LExprKind::Const(l) if l.xz() == 0 && l.val() == mask(w))
}

/// Replaces `if` statements whose condition folded to a fully-known
/// constant with the taken branch (the simulator branches identically
/// on known conditions; unknown conditions are left alone — it has
/// merge semantics there). Returns the number of prunes.
fn prune_const_branches(s: &mut LStmt) -> u64 {
    match s {
        LStmt::Block(stmts) => stmts.iter_mut().map(prune_const_branches).sum(),
        LStmt::If { cond, then_branch, else_branch, .. } => {
            let mut n = prune_const_branches(then_branch);
            if let Some(eb) = else_branch.as_mut() {
                n += prune_const_branches(eb);
            }
            let taken = match &cond.kind {
                LExprKind::Const(l) => match l.truthiness() {
                    Tri::True => Some(std::mem::replace(then_branch.as_mut(), LStmt::Nop)),
                    Tri::False => Some(match else_branch.take() {
                        Some(eb) => *eb,
                        None => LStmt::Nop,
                    }),
                    Tri::Unknown => None,
                },
                _ => None,
            };
            match taken {
                Some(branch) => {
                    *s = branch;
                    n + 1
                }
                None => n,
            }
        }
        LStmt::Case { arms, default, .. } => {
            let mut n: u64 = arms.iter_mut().map(|(_, b)| prune_const_branches(b)).sum();
            if let Some(d) = default.as_mut() {
                n += prune_const_branches(d);
            }
            n
        }
        LStmt::Assign { .. } | LStmt::Nop => 0,
    }
}

// ---------------------------------------------------------------------------
// Canonicalization
// ---------------------------------------------------------------------------

/// Orders the operands of commutative operators by a deterministic
/// structural key (constants rank last, so `c + x` becomes `x + c`).
///
/// Only operators whose evaluation is symmetric in *both* value and
/// context width are touched: arithmetic/bitwise operands share the
/// parent context, comparisons share `max(a.width, b.width)`, and
/// logical and/or are self-determined — so swapping is observationally
/// invisible. `Sub`, shifts and relational operators stay put.
pub struct Canonicalize;

impl Pass for Canonicalize {
    fn name(&self) -> &'static str {
        "canonicalize"
    }

    fn run(&self, design: &mut Design) -> u64 {
        let mut swaps = 0u64;
        let mut processes = std::mem::take(design.processes_mut());
        for process in &mut processes {
            rewrite_exprs(design, &mut process.body, &mut |e, _ctx| {
                if let LExprKind::Binary(op, a, b) = &mut e.kind {
                    if is_commutative(*op) && expr_cmp(a, b) == std::cmp::Ordering::Greater {
                        std::mem::swap(a, b);
                        swaps += 1;
                    }
                }
            });
        }
        *design.processes_mut() = processes;
        swaps
    }
}

fn is_commutative(op: BinaryOp) -> bool {
    use BinaryOp::*;
    matches!(
        op,
        Add | Mul | BitAnd | BitOr | BitXor | BitXnor | Eq | Ne | CaseEq | CaseNe | LogAnd | LogOr
    )
}

fn kind_rank(e: &LExpr) -> u8 {
    match &e.kind {
        LExprKind::Sig(_) => 0,
        LExprKind::Word(_, _) => 1,
        LExprKind::BitSel(_, _) => 2,
        LExprKind::PartSel(_, _) => 3,
        LExprKind::Unary(_, _) => 4,
        LExprKind::Binary(_, _, _) => 5,
        LExprKind::Ternary(_, _, _) => 6,
        LExprKind::Concat(_) => 7,
        // Constants rank last: the canonical form keeps them on the rhs.
        LExprKind::Const(_) => 8,
    }
}

/// Total structural order on expressions (canonicalization key).
fn expr_cmp(a: &LExpr, b: &LExpr) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    let by_rank = kind_rank(a).cmp(&kind_rank(b)).then(a.width.cmp(&b.width));
    if by_rank != Ordering::Equal {
        return by_rank;
    }
    match (&a.kind, &b.kind) {
        (LExprKind::Sig(x), LExprKind::Sig(y)) => x.0.cmp(&y.0),
        (LExprKind::Word(x, i), LExprKind::Word(y, j))
        | (LExprKind::BitSel(x, i), LExprKind::BitSel(y, j)) => {
            x.0.cmp(&y.0).then_with(|| expr_cmp(i, j))
        }
        (LExprKind::PartSel(x, i), LExprKind::PartSel(y, j)) => x.0.cmp(&y.0).then(i.cmp(j)),
        (LExprKind::Unary(oa, x), LExprKind::Unary(ob, y)) => {
            (*oa as u8).cmp(&(*ob as u8)).then_with(|| expr_cmp(x, y))
        }
        (LExprKind::Binary(oa, x1, x2), LExprKind::Binary(ob, y1, y2)) => (*oa as u8)
            .cmp(&(*ob as u8))
            .then_with(|| expr_cmp(x1, y1))
            .then_with(|| expr_cmp(x2, y2)),
        (LExprKind::Ternary(c1, t1, f1), LExprKind::Ternary(c2, t2, f2)) => {
            expr_cmp(c1, c2).then_with(|| expr_cmp(t1, t2)).then_with(|| expr_cmp(f1, f2))
        }
        (LExprKind::Concat(xs), LExprKind::Concat(ys)) => xs.len().cmp(&ys.len()).then_with(|| {
            xs.iter()
                .zip(ys)
                .map(|(x, y)| expr_cmp(x, y))
                .find(|o| *o != Ordering::Equal)
                .unwrap_or(Ordering::Equal)
        }),
        (LExprKind::Const(x), LExprKind::Const(y)) => {
            x.width().cmp(&y.width()).then(x.val().cmp(&y.val())).then(x.xz().cmp(&y.xz()))
        }
        _ => Ordering::Equal,
    }
}

// ---------------------------------------------------------------------------
// Buffer removal
// ---------------------------------------------------------------------------

/// Removes pure buffer processes (`assign y = x;`) by substituting the
/// source signal into every reader and deleting the process.
///
/// Guards (all required — each blocks a real hazard):
/// - `y` is an internal scalar (`words == 1`, not a port) with the
///   buffer as its only writer, and `x` is a scalar;
/// - every process touching `y` is combinational with sensitivity
///   equal to its inferred reads — sequential or `initial` readers
///   (and edge lists) would observe `y`'s one-delta lag, which the
///   substitution removes;
/// - on a width change, `y` only ever appears as a whole read (the
///   substitute is then an explicit truncation / zero-extension, which
///   is what the buffer's own assignment staging performed).
///
/// Orphans `y` in the signal table (ids are append-only).
pub struct BufferRemoval;

impl Pass for BufferRemoval {
    fn name(&self) -> &'static str {
        "buffer_removal"
    }

    fn run(&self, design: &mut Design) -> u64 {
        let mut removed = 0u64;
        // Each success deletes a process, so this terminates; restart
        // the scan after each removal (indices shift).
        loop {
            let n = design.processes().len();
            let mut changed = false;
            for pid in 0..n {
                if try_remove_buffer(design, pid) {
                    removed += 1;
                    changed = true;
                    break;
                }
            }
            if !changed {
                return removed;
            }
        }
    }
}

/// Matches `process[pid]` against the buffer shape and commits the
/// removal if every guard holds.
fn try_remove_buffer(design: &mut Design, pid: usize) -> bool {
    let p = &design.processes()[pid];
    let Trigger::Comb(deps) = &p.trigger else { return false };
    let LStmt::Assign { lhs: LTarget::Whole(y), rhs, blocking: true, .. } = &p.body else {
        return false;
    };
    let y = *y;
    let LExprKind::Sig(x) = rhs.kind else { return false };
    if x == y || deps.as_slice() != [x] {
        return false;
    }
    let sy = design.signal(y);
    let sx = design.signal(x);
    if sy.is_input || sy.is_output || sy.words != 1 || sx.words != 1 {
        return false;
    }
    let (wy, wx) = (sy.width, sx.width);

    let Some(readers) = touching_processes(design, pid, y) else { return false };

    // Build substituted bodies first; commit only if every reader's
    // occurrences of `y` are substitutable.
    let mut new_bodies = Vec::with_capacity(readers.len());
    for &qid in &readers {
        let mut body = design.processes()[qid].body.clone();
        let mut ok = true;
        rewrite_exprs(design, &mut body, &mut |e, _ctx| {
            substitute_buffer_read(e, y, x, wy, wx, &mut ok);
        });
        if !ok {
            return false;
        }
        new_bodies.push((qid, body));
    }

    for (qid, body) in new_bodies {
        let deps = stmt_read_signals(&body);
        let q = &mut design.processes_mut()[qid];
        q.body = body;
        q.trigger = Trigger::Comb(deps);
    }
    design.processes_mut().remove(pid);
    true
}

/// Collects the processes (other than `pid`) that read `y` or list it
/// in their sensitivity; `None` if any of them disqualifies the
/// rewrite (non-comb, stale sensitivity, or a second writer).
fn touching_processes(design: &Design, pid: usize, y: SignalId) -> Option<Vec<usize>> {
    let mut readers = Vec::new();
    for (qid, q) in design.processes().iter().enumerate() {
        if qid == pid {
            continue;
        }
        if stmt_written_signals(&q.body).contains(&y) {
            return None;
        }
        let reads = stmt_read_signals(&q.body);
        let reads_y = reads.contains(&y);
        match &q.trigger {
            Trigger::Comb(qdeps) => {
                if reads_y || qdeps.contains(&y) {
                    // Only rewrite readers whose sensitivity is the
                    // inferred one — we recompute it after substituting.
                    if *qdeps != reads {
                        return None;
                    }
                    readers.push(qid);
                }
            }
            Trigger::Seq(edges) => {
                if reads_y || edges.iter().any(|(s, _)| *s == y) {
                    return None;
                }
            }
            Trigger::Initial => {
                if reads_y {
                    return None;
                }
            }
        }
    }
    Some(readers)
}

/// Rewrites one occurrence of `y` to read `x` directly. Same width:
/// any read shape maps 1:1. Different width: only whole reads qualify,
/// and the substitute replays the buffer's staging (`x` truncated or
/// zero-extended to `y`'s width) — context-independent, so no `ctx`
/// check is needed.
fn substitute_buffer_read(
    e: &mut LExpr,
    y: SignalId,
    x: SignalId,
    wy: u32,
    wx: u32,
    ok: &mut bool,
) {
    match &mut e.kind {
        LExprKind::Sig(s) if *s == y => {
            if wx == wy {
                e.kind = LExprKind::Sig(x);
            } else if wx > wy {
                *e = LExpr { kind: LExprKind::PartSel(x, 0), width: wy };
            } else {
                *e = LExpr {
                    kind: LExprKind::Concat(vec![
                        LExpr { kind: LExprKind::Const(Logic::zeros(wy - wx)), width: wy - wx },
                        LExpr { kind: LExprKind::Sig(x), width: wx },
                    ]),
                    width: wy,
                };
            }
        }
        LExprKind::BitSel(s, _) if *s == y => {
            if wx == wy {
                *s = x;
            } else {
                *ok = false;
            }
        }
        LExprKind::PartSel(s, _) if *s == y => {
            if wx == wy {
                *s = x;
            } else {
                *ok = false;
            }
        }
        LExprKind::Word(s, _) if *s == y => *ok = false,
        _ => {}
    }
}

// ---------------------------------------------------------------------------
// Comb-chain rebalancing
// ---------------------------------------------------------------------------

/// Inlines single-reader combinational assignments into their reader,
/// collapsing writer→reader chains and shrinking the levelized comb
/// depth ([`crate::levelized_depth`]).
///
/// A producer `assign y = rhs;` is inlined into its unique reader `Q`
/// when the substitution provably replays the producer's staging:
/// `rhs.width == y.width`, every occurrence of `y` in `Q` is a whole
/// read at a static context ≤ `y.width` (so the runtime evaluates the
/// inlined `rhs` at exactly the width the producer used), `Q` is
/// combinational with inferred sensitivity, and `rhs` does not read
/// `y`. A size guard keeps the duplication bounded.
pub struct Rebalance;

/// Inlined-expression growth cap: occurrences × producer size.
const INLINE_SIZE_LIMIT: u32 = 64;

impl Pass for Rebalance {
    fn name(&self) -> &'static str {
        "rebalance"
    }

    fn run(&self, design: &mut Design) -> u64 {
        let mut inlined = 0u64;
        loop {
            let n = design.processes().len();
            let mut changed = false;
            for pid in 0..n {
                if try_inline(design, pid) {
                    inlined += 1;
                    changed = true;
                    break;
                }
            }
            if !changed {
                return inlined;
            }
        }
    }
}

fn try_inline(design: &mut Design, pid: usize) -> bool {
    let p = &design.processes()[pid];
    let Trigger::Comb(deps) = &p.trigger else { return false };
    let LStmt::Assign { lhs: LTarget::Whole(y), rhs, blocking: true, .. } = &p.body else {
        return false;
    };
    let y = *y;
    let sy = design.signal(y);
    if sy.is_input || sy.is_output || sy.words != 1 {
        return false;
    }
    let wy = sy.width;
    if rhs.width != wy {
        return false;
    }
    let rhs_reads = expr_signals(rhs);
    if rhs_reads.contains(&y) || *deps != rhs_reads {
        return false;
    }

    let Some(readers) = touching_processes(design, pid, y) else { return false };
    // Exactly one reader: inlining into several would duplicate the
    // producer without removing a level from most of them.
    let [qid] = readers.as_slice() else { return false };
    let qid = *qid;

    let rhs = rhs.clone();
    let mut body = design.processes()[qid].body.clone();
    let mut occurrences = 0u32;
    let mut ok = true;
    rewrite_exprs(design, &mut body, &mut |e, ctx| match &e.kind {
        LExprKind::Sig(s) if *s == y => {
            // ctx ≤ wy ⇒ the runtime evaluates this position at width
            // max(ctx, wy) = wy — exactly how the producer staged `y`.
            if ctx <= wy && e.width == wy {
                *e = rhs.clone();
                occurrences += 1;
            } else {
                ok = false;
            }
        }
        LExprKind::BitSel(s, _) | LExprKind::PartSel(s, _) | LExprKind::Word(s, _) if *s == y => {
            ok = false;
        }
        _ => {}
    });
    if !ok || occurrences == 0 || occurrences.saturating_mul(expr_size(&rhs)) > INLINE_SIZE_LIMIT {
        return false;
    }

    let deps = stmt_read_signals(&body);
    let q = &mut design.processes_mut()[qid];
    q.body = body;
    q.trigger = Trigger::Comb(deps);
    design.processes_mut().remove(pid);
    true
}
