//! Yosys-JSON netlist interchange.
//!
//! [`export`] serialises an elaborated [`Design`] into the JSON
//! netlist format produced by `yosys -o design.json` (one module,
//! `ports` / `cells` / `netnames` / `memories` sections, global bit
//! ids); [`import`] reads such a file back into a [`Design`] that
//! simulates like the original — whether it came from this exporter or
//! from a real Yosys run on third-party RTL.
//!
//! # Mapping
//!
//! Processes whose shape matches a Yosys word-level cell are exported
//! as that cell (`$add`, `$mux`, `$dff`, `$reduce_*`, …). Everything
//! else — multi-statement always blocks, case dispatch, initial
//! blocks — becomes a `$uvllm.process` extension cell whose `BODY` and
//! `TRIGGER` parameters hold a deterministic S-expression rendering of
//! the lowered IR (signals referenced by name, no connections). Yosys
//! itself ignores unknown cell types, so exported files stay loadable
//! there; this importer round-trips them losslessly (source spans are
//! the only thing dropped).
//!
//! Memories (`words > 1`) live in the `memories` section and have no
//! bit ids; simulator-specific signal metadata rides along as netname
//! attributes (`uvllm_kind`, `uvllm_lsb`).
//!
//! # Determinism and round-trips
//!
//! Export is a pure function of the design: bit ids are assigned
//! ports-first (inputs, outputs, then remaining scalars in id order),
//! cells are named `$p<n>` in process order, and every object is
//! rendered with a fixed member order. The CI contract is a JSON-level
//! fixpoint: `export(import(export(d)))` is byte-identical to
//! `export(d)` for every design — signal ids may be renumbered on
//! import (scalars before memories), but nothing observable in the
//! JSON or in the simulated port waveforms changes.
//!
//! Width semantics note: operand widths of imported word-level cells
//! follow this simulator's (unsigned) elaboration rules — `A_SIGNED` /
//! `B_SIGNED` are ignored, so signed Yosys netlists are outside the
//! supported subset and X/Z handling follows the four-state evaluator.

use std::collections::HashMap;
use std::fmt;

use uvllm_json::Json;
use uvllm_sim::elab::{
    expr_signals, Design, LExpr, LExprKind, LStmt, LTarget, Process, SignalId, SignalInfo,
    SignalKind, Trigger,
};
use uvllm_sim::logic::Logic;
use uvllm_verilog::ast::{BinaryOp, CaseKind, Edge, UnaryOp};
use uvllm_verilog::span::Span;

/// Import failure (malformed JSON, unsupported cell, dangling name…).
#[derive(Debug, Clone, PartialEq)]
pub struct ImportError {
    pub message: String,
}

impl ImportError {
    fn new(message: impl Into<String>) -> ImportError {
        ImportError { message: message.into() }
    }
}

impl fmt::Display for ImportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "yosys import error: {}", self.message)
    }
}

impl std::error::Error for ImportError {}

fn err<T>(message: impl Into<String>) -> Result<T, ImportError> {
    Err(ImportError::new(message))
}

// ===========================================================================
// Export
// ===========================================================================

/// First global bit id; Yosys reserves 0/1 for constants in older
/// dialects, so ids conventionally start at 2.
const FIRST_BIT: u64 = 2;

/// Exports `design` as a Yosys-JSON document.
pub fn export(design: &Design) -> Json {
    let bits = BitMap::assign(design);

    let mut ports = Vec::new();
    for (&id, direction) in design
        .inputs()
        .iter()
        .map(|id| (id, "input"))
        .chain(design.outputs().iter().map(|id| (id, "output")))
    {
        let info = design.signal(id);
        ports.push((
            info.name.clone(),
            Json::Obj(vec![
                ("direction".into(), Json::Str(direction.into())),
                ("bits".into(), bits.bits_json(id, info.width)),
            ]),
        ));
    }

    let mut cells = Vec::new();
    for (idx, process) in design.processes().iter().enumerate() {
        cells.push((format!("$p{idx}"), cell_for_process(design, &bits, process)));
    }

    let mut netnames = Vec::new();
    for &id in &bits.order {
        let info = design.signal(id);
        netnames.push((
            info.name.clone(),
            Json::Obj(vec![
                ("hide_name".into(), Json::Num(0.0)),
                ("bits".into(), bits.bits_json(id, info.width)),
                ("attributes".into(), signal_attributes(info)),
            ]),
        ));
    }

    let mut memories = Vec::new();
    for (i, info) in design.signals().iter().enumerate() {
        if info.words > 1 {
            let _ = SignalId(i as u32);
            memories.push((
                info.name.clone(),
                Json::Obj(vec![
                    ("hide_name".into(), Json::Num(0.0)),
                    ("attributes".into(), signal_attributes(info)),
                    ("width".into(), Json::Num(info.width as f64)),
                    ("start_offset".into(), Json::Num(info.array_lo as f64)),
                    ("size".into(), Json::Num(info.words as f64)),
                ]),
            ));
        }
    }

    let module = Json::Obj(vec![
        ("attributes".into(), Json::Obj(vec![("top".into(), Json::Num(1.0))])),
        ("ports".into(), Json::Obj(ports)),
        ("cells".into(), Json::Obj(cells)),
        ("netnames".into(), Json::Obj(netnames)),
        ("memories".into(), Json::Obj(memories)),
    ]);

    Json::Obj(vec![
        ("creator".into(), Json::Str("uvllm-netlist".into())),
        ("modules".into(), Json::Obj(vec![(design.top.clone(), module)])),
    ])
}

/// [`export`] rendered as pretty JSON with a trailing newline (the
/// on-disk format the round-trip gate compares byte-for-byte).
pub fn export_string(design: &Design) -> String {
    let mut out = export(design).render_pretty();
    out.push('\n');
    out
}

fn signal_attributes(info: &SignalInfo) -> Json {
    let mut attrs = Vec::new();
    if info.kind == SignalKind::Var {
        attrs.push(("uvllm_kind".into(), Json::Str("var".into())));
    }
    if info.lsb != 0 {
        attrs.push(("uvllm_lsb".into(), Json::Num(info.lsb as f64)));
    }
    Json::Obj(attrs)
}

/// Global bit ids for every scalar signal (memories have none).
struct BitMap {
    /// Base bit id per signal (index = `SignalId`), `None` for memories.
    base: Vec<Option<u64>>,
    /// Scalar signals in bit-id order (ports first).
    order: Vec<SignalId>,
}

impl BitMap {
    fn assign(design: &Design) -> BitMap {
        let mut base = vec![None; design.signals().len()];
        let mut order = Vec::new();
        let mut next = FIRST_BIT;
        let ports = design.inputs().iter().chain(design.outputs());
        let rest = (0..design.signals().len() as u32).map(SignalId);
        for id in ports.copied().chain(rest) {
            let info = design.signal(id);
            if info.words > 1 || base[id.0 as usize].is_some() {
                continue;
            }
            base[id.0 as usize] = Some(next);
            order.push(id);
            next += info.width as u64;
        }
        BitMap { base, order }
    }

    fn base(&self, id: SignalId) -> Option<u64> {
        self.base[id.0 as usize]
    }

    fn bits_json(&self, id: SignalId, width: u32) -> Json {
        let base = self.base(id).expect("scalar signal has bit ids");
        Json::Arr((0..width as u64).map(|i| Json::Num((base + i) as f64)).collect())
    }
}

/// One connection bit: a global net id or a constant bit.
#[derive(Clone, Copy, PartialEq)]
enum Bit {
    Id(u64),
    Const(char),
}

impl Bit {
    fn to_json(self) -> Json {
        match self {
            Bit::Id(id) => Json::Num(id as f64),
            Bit::Const(c) => Json::Str(c.to_string()),
        }
    }
}

fn const_bit_char(value: &Logic, i: u32) -> char {
    let val = (value.val() >> i) & 1;
    let xz = (value.xz() >> i) & 1;
    match (xz, val) {
        (0, 0) => '0',
        (0, _) => '1',
        (_, 0) => 'x',
        _ => 'z',
    }
}

/// Renders an expression as an LSB-first bit-id vector, when it is a
/// pure wiring expression (signals, constants, static selects and
/// concatenations thereof). Anything computational returns `None`.
fn bits_of_expr(design: &Design, bits: &BitMap, e: &LExpr) -> Option<Vec<Bit>> {
    let out = match &e.kind {
        LExprKind::Sig(s) => {
            let base = bits.base(*s)?;
            (0..design.signal(*s).width as u64).map(|i| Bit::Id(base + i)).collect()
        }
        LExprKind::Const(l) => (0..l.width()).map(|i| Bit::Const(const_bit_char(l, i))).collect(),
        LExprKind::PartSel(s, off) => {
            let base = bits.base(*s)?;
            let width = design.signal(*s).width;
            if off + e.width > width {
                return None;
            }
            (0..e.width as u64).map(|i| Bit::Id(base + *off as u64 + i)).collect()
        }
        LExprKind::BitSel(s, index) => {
            // Only constant, in-range indices are wiring; out-of-range
            // constant selects are a hard X.
            let LExprKind::Const(l) = &index.kind else { return None };
            let base = bits.base(*s)?;
            match l.to_u128() {
                Some(i) if i < design.signal(*s).width as u128 => {
                    vec![Bit::Id(base + i as u64)]
                }
                Some(_) => vec![Bit::Const('x')],
                None => return None,
            }
        }
        LExprKind::Concat(items) => {
            // Truncating concats (> 128 bits) are not pure wiring.
            let total: u32 = items.iter().map(|i| i.width).sum();
            if total != e.width {
                return None;
            }
            let mut out = Vec::with_capacity(total as usize);
            for item in items.iter().rev() {
                let mut item_bits = bits_of_expr(design, bits, item)?;
                if item_bits.len() != item.width as usize {
                    return None;
                }
                out.append(&mut item_bits);
            }
            out
        }
        _ => return None,
    };
    if out.len() == e.width.max(1) as usize {
        Some(out)
    } else {
        None
    }
}

fn bits_json(v: Vec<Bit>) -> Json {
    Json::Arr(v.into_iter().map(Bit::to_json).collect())
}

/// Maps a [`BinaryOp`] to its Yosys cell type (those without one —
/// `RedNand`-style ops live only on the unary side — fall back to
/// `$uvllm.process`).
fn binary_cell_type(op: BinaryOp) -> Option<&'static str> {
    use BinaryOp::*;
    Some(match op {
        Add => "$add",
        Sub => "$sub",
        Mul => "$mul",
        Div => "$div",
        Mod => "$mod",
        Pow => "$pow",
        Shl => "$shl",
        Shr => "$shr",
        AShr => "$sshr",
        Lt => "$lt",
        Le => "$le",
        Gt => "$gt",
        Ge => "$ge",
        Eq => "$eq",
        Ne => "$ne",
        CaseEq => "$eqx",
        CaseNe => "$nex",
        LogAnd => "$logic_and",
        LogOr => "$logic_or",
        BitAnd => "$and",
        BitOr => "$or",
        BitXor => "$xor",
        BitXnor => "$xnor",
    })
}

fn unary_cell_type(op: UnaryOp) -> Option<&'static str> {
    use UnaryOp::*;
    match op {
        BitNot => Some("$not"),
        Neg => Some("$neg"),
        Plus => Some("$pos"),
        LogNot => Some("$logic_not"),
        RedAnd => Some("$reduce_and"),
        RedOr => Some("$reduce_or"),
        RedXor => Some("$reduce_xor"),
        RedXnor => Some("$reduce_xnor"),
        // No Yosys equivalent: keep the process form.
        RedNand | RedNor => None,
    }
}

fn cell(
    ty: &str,
    parameters: Vec<(String, Json)>,
    connections: Vec<(&'static str, &'static str, Json)>,
) -> Json {
    let port_directions =
        connections.iter().map(|(n, d, _)| (n.to_string(), Json::Str(d.to_string()))).collect();
    let conns = connections.into_iter().map(|(n, _, v)| (n.to_string(), v)).collect();
    Json::Obj(vec![
        ("hide_name".into(), Json::Num(1.0)),
        ("type".into(), Json::Str(ty.into())),
        ("parameters".into(), Json::Obj(parameters)),
        ("attributes".into(), Json::Obj(Vec::new())),
        ("port_directions".into(), Json::Obj(port_directions)),
        ("connections".into(), Json::Obj(conns)),
    ])
}

fn num(n: u32) -> Json {
    Json::Num(n as f64)
}

/// Exports one process: a standard Yosys cell when the shape allows,
/// otherwise a `$uvllm.process` extension cell.
fn cell_for_process(design: &Design, bits: &BitMap, process: &Process) -> Json {
    if let Some(cell) = standard_cell(design, bits, process) {
        return cell;
    }
    cell(
        "$uvllm.process",
        vec![
            ("BODY".into(), Json::Str(sexpr_stmt(design, &process.body))),
            ("TRIGGER".into(), Json::Str(sexpr_trigger(design, &process.trigger))),
        ],
        Vec::new(),
    )
}

fn standard_cell(design: &Design, bits: &BitMap, process: &Process) -> Option<Json> {
    match &process.trigger {
        Trigger::Comb(deps) => {
            let LStmt::Assign { lhs: LTarget::Whole(y), rhs, blocking: true, .. } = &process.body
            else {
                return None;
            };
            if *deps != expr_signals(rhs) || design.signal(*y).words != 1 {
                return None;
            }
            let wy = design.signal(*y).width;
            let y_bits = bits.bits_json(*y, wy);
            match &rhs.kind {
                LExprKind::Binary(op, a, b) => {
                    let ty = binary_cell_type(*op)?;
                    let a_bits = bits_of_expr(design, bits, a)?;
                    let b_bits = bits_of_expr(design, bits, b)?;
                    Some(cell(
                        ty,
                        vec![
                            ("A_SIGNED".into(), num(0)),
                            ("A_WIDTH".into(), num(a_bits.len() as u32)),
                            ("B_SIGNED".into(), num(0)),
                            ("B_WIDTH".into(), num(b_bits.len() as u32)),
                            ("Y_WIDTH".into(), num(wy)),
                        ],
                        vec![
                            ("A", "input", bits_json(a_bits)),
                            ("B", "input", bits_json(b_bits)),
                            ("Y", "output", y_bits),
                        ],
                    ))
                }
                LExprKind::Unary(op, a) => {
                    let ty = unary_cell_type(*op)?;
                    let a_bits = bits_of_expr(design, bits, a)?;
                    Some(cell(
                        ty,
                        vec![
                            ("A_SIGNED".into(), num(0)),
                            ("A_WIDTH".into(), num(a_bits.len() as u32)),
                            ("Y_WIDTH".into(), num(wy)),
                        ],
                        vec![("A", "input", bits_json(a_bits)), ("Y", "output", y_bits)],
                    ))
                }
                LExprKind::Ternary(c, t, f) => {
                    // Yosys $mux: Y = S ? B : A, with a 1-bit selector
                    // and equal-width data legs.
                    if c.width != 1 || t.width != wy || f.width != wy {
                        return None;
                    }
                    let s_bits = bits_of_expr(design, bits, c)?;
                    let t_bits = bits_of_expr(design, bits, t)?;
                    let f_bits = bits_of_expr(design, bits, f)?;
                    Some(cell(
                        "$mux",
                        vec![("WIDTH".into(), num(wy))],
                        vec![
                            ("A", "input", bits_json(f_bits)),
                            ("B", "input", bits_json(t_bits)),
                            ("S", "input", bits_json(s_bits)),
                            ("Y", "output", y_bits),
                        ],
                    ))
                }
                // Pure wiring: export as the identity cell.
                _ => {
                    let a_bits = bits_of_expr(design, bits, rhs)?;
                    Some(cell(
                        "$pos",
                        vec![
                            ("A_SIGNED".into(), num(0)),
                            ("A_WIDTH".into(), num(a_bits.len() as u32)),
                            ("Y_WIDTH".into(), num(wy)),
                        ],
                        vec![("A", "input", bits_json(a_bits)), ("Y", "output", y_bits)],
                    ))
                }
            }
        }
        Trigger::Seq(edges) => {
            let [(clk, Some(edge))] = edges.as_slice() else { return None };
            let clk_info = design.signal(*clk);
            if clk_info.width != 1 || clk_info.words != 1 {
                return None;
            }
            let LStmt::Assign { lhs: LTarget::Whole(q), rhs, blocking: false, .. } = &process.body
            else {
                return None;
            };
            let q_info = design.signal(*q);
            if q_info.words != 1 || rhs.width != q_info.width {
                return None;
            }
            let d_bits = bits_of_expr(design, bits, rhs)?;
            Some(cell(
                "$dff",
                vec![
                    ("CLK_POLARITY".into(), num(if *edge == Edge::Pos { 1 } else { 0 })),
                    ("WIDTH".into(), num(q_info.width)),
                ],
                vec![
                    ("CLK", "input", bits.bits_json(*clk, 1)),
                    ("D", "input", bits_json(d_bits)),
                    ("Q", "output", bits.bits_json(*q, q_info.width)),
                ],
            ))
        }
        Trigger::Initial => None,
    }
}

// ===========================================================================
// S-expressions for $uvllm.process
// ===========================================================================

fn quote(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 2);
    out.push('"');
    for c in name.chars() {
        if c == '"' || c == '\\' {
            out.push('\\');
        }
        out.push(c);
    }
    out.push('"');
    out
}

fn binop_name(op: BinaryOp) -> &'static str {
    use BinaryOp::*;
    match op {
        Add => "Add",
        Sub => "Sub",
        Mul => "Mul",
        Div => "Div",
        Mod => "Mod",
        Pow => "Pow",
        Shl => "Shl",
        Shr => "Shr",
        AShr => "AShr",
        Lt => "Lt",
        Le => "Le",
        Gt => "Gt",
        Ge => "Ge",
        Eq => "Eq",
        Ne => "Ne",
        CaseEq => "CaseEq",
        CaseNe => "CaseNe",
        LogAnd => "LogAnd",
        LogOr => "LogOr",
        BitAnd => "BitAnd",
        BitOr => "BitOr",
        BitXor => "BitXor",
        BitXnor => "BitXnor",
    }
}

fn binop_from(name: &str) -> Option<BinaryOp> {
    use BinaryOp::*;
    Some(match name {
        "Add" => Add,
        "Sub" => Sub,
        "Mul" => Mul,
        "Div" => Div,
        "Mod" => Mod,
        "Pow" => Pow,
        "Shl" => Shl,
        "Shr" => Shr,
        "AShr" => AShr,
        "Lt" => Lt,
        "Le" => Le,
        "Gt" => Gt,
        "Ge" => Ge,
        "Eq" => Eq,
        "Ne" => Ne,
        "CaseEq" => CaseEq,
        "CaseNe" => CaseNe,
        "LogAnd" => LogAnd,
        "LogOr" => LogOr,
        "BitAnd" => BitAnd,
        "BitOr" => BitOr,
        "BitXor" => BitXor,
        "BitXnor" => BitXnor,
        _ => return None,
    })
}

fn unop_name(op: UnaryOp) -> &'static str {
    use UnaryOp::*;
    match op {
        LogNot => "LogNot",
        BitNot => "BitNot",
        Neg => "Neg",
        Plus => "Plus",
        RedAnd => "RedAnd",
        RedOr => "RedOr",
        RedXor => "RedXor",
        RedNand => "RedNand",
        RedNor => "RedNor",
        RedXnor => "RedXnor",
    }
}

fn unop_from(name: &str) -> Option<UnaryOp> {
    use UnaryOp::*;
    Some(match name {
        "LogNot" => LogNot,
        "BitNot" => BitNot,
        "Neg" => Neg,
        "Plus" => Plus,
        "RedAnd" => RedAnd,
        "RedOr" => RedOr,
        "RedXor" => RedXor,
        "RedNand" => RedNand,
        "RedNor" => RedNor,
        "RedXnor" => RedXnor,
        _ => None?,
    })
}

fn name_of(design: &Design, id: SignalId) -> String {
    quote(&design.signal(id).name)
}

fn const_string(l: &Logic) -> String {
    // MSB-first, like Verilog literals.
    (0..l.width()).rev().map(|i| const_bit_char(l, i)).collect()
}

fn sexpr_expr(design: &Design, e: &LExpr) -> String {
    let w = e.width;
    match &e.kind {
        LExprKind::Const(l) => format!("(const {w} {})", quote(&const_string(l))),
        LExprKind::Sig(s) => format!("(sig {w} {})", name_of(design, *s)),
        LExprKind::Word(s, index) => {
            format!("(word {w} {} {})", name_of(design, *s), sexpr_expr(design, index))
        }
        LExprKind::BitSel(s, index) => {
            format!("(bitsel {w} {} {})", name_of(design, *s), sexpr_expr(design, index))
        }
        LExprKind::PartSel(s, off) => {
            format!("(part {w} {} {off})", name_of(design, *s))
        }
        LExprKind::Unary(op, a) => {
            format!("(un {w} {} {})", unop_name(*op), sexpr_expr(design, a))
        }
        LExprKind::Binary(op, a, b) => format!(
            "(bin {w} {} {} {})",
            binop_name(*op),
            sexpr_expr(design, a),
            sexpr_expr(design, b)
        ),
        LExprKind::Ternary(c, t, f) => format!(
            "(tern {w} {} {} {})",
            sexpr_expr(design, c),
            sexpr_expr(design, t),
            sexpr_expr(design, f)
        ),
        LExprKind::Concat(items) => {
            let body: Vec<String> = items.iter().map(|i| sexpr_expr(design, i)).collect();
            format!("(cat {w} {})", body.join(" "))
        }
    }
}

fn sexpr_target(design: &Design, t: &LTarget) -> String {
    match t {
        LTarget::Whole(s) => format!("(whole {})", name_of(design, *s)),
        LTarget::Bit(s, index) => {
            format!("(bit {} {})", name_of(design, *s), sexpr_expr(design, index))
        }
        LTarget::Part(s, off, w) => format!("(part {} {off} {w})", name_of(design, *s)),
        LTarget::Word(s, index) => {
            format!("(word {} {})", name_of(design, *s), sexpr_expr(design, index))
        }
        LTarget::Concat(parts) => {
            let body: Vec<String> = parts.iter().map(|p| sexpr_target(design, p)).collect();
            format!("(tcat {})", body.join(" "))
        }
    }
}

fn sexpr_stmt(design: &Design, s: &LStmt) -> String {
    match s {
        LStmt::Block(stmts) => {
            let body: Vec<String> = stmts.iter().map(|s| sexpr_stmt(design, s)).collect();
            if body.is_empty() {
                "(block)".into()
            } else {
                format!("(block {})", body.join(" "))
            }
        }
        LStmt::Assign { lhs, rhs, blocking, .. } => format!(
            "(assign {} {} {})",
            if *blocking { "b" } else { "n" },
            sexpr_target(design, lhs),
            sexpr_expr(design, rhs)
        ),
        LStmt::If { cond, then_branch, else_branch, .. } => {
            let mut out =
                format!("(if {} {}", sexpr_expr(design, cond), sexpr_stmt(design, then_branch));
            if let Some(eb) = else_branch {
                out.push(' ');
                out.push_str(&sexpr_stmt(design, eb));
            }
            out.push(')');
            out
        }
        LStmt::Case { kind, expr, arms, default, .. } => {
            let kind_name = match kind {
                CaseKind::Case => "case",
                CaseKind::Casez => "casez",
                CaseKind::Casex => "casex",
            };
            let mut out = format!("({kind_name} {}", sexpr_expr(design, expr));
            for (labels, body) in arms {
                let labels: Vec<String> = labels.iter().map(|l| sexpr_expr(design, l)).collect();
                out.push_str(&format!(
                    " (arm ({}) {})",
                    labels.join(" "),
                    sexpr_stmt(design, body)
                ));
            }
            if let Some(d) = default {
                out.push_str(&format!(" (default {})", sexpr_stmt(design, d)));
            }
            out.push(')');
            out
        }
        LStmt::Nop => "(nop)".into(),
    }
}

fn sexpr_trigger(design: &Design, t: &Trigger) -> String {
    match t {
        Trigger::Comb(deps) => {
            let names: Vec<String> = deps.iter().map(|s| name_of(design, *s)).collect();
            if names.is_empty() {
                "(comb)".into()
            } else {
                format!("(comb {})", names.join(" "))
            }
        }
        Trigger::Seq(edges) => {
            let entries: Vec<String> = edges
                .iter()
                .map(|(s, e)| {
                    let edge = match e {
                        Some(Edge::Pos) => "pos",
                        Some(Edge::Neg) => "neg",
                        None => "any",
                    };
                    format!("({} {edge})", name_of(design, *s))
                })
                .collect();
            format!("(seq {})", entries.join(" "))
        }
        Trigger::Initial => "(initial)".into(),
    }
}

// ---------------------------------------------------------------------------
// S-expression parsing
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum SExpr {
    Atom(String),
    Str(String),
    List(Vec<SExpr>),
}

fn parse_sexpr(text: &str) -> Result<SExpr, ImportError> {
    let mut tokens = tokenize(text)?;
    tokens.reverse();
    let root = parse_tokens(&mut tokens)?;
    if !tokens.is_empty() {
        return err("trailing tokens in S-expression");
    }
    Ok(root)
}

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Open,
    Close,
    Atom(String),
    Str(String),
}

fn tokenize(text: &str) -> Result<Vec<Token>, ImportError> {
    let mut out = Vec::new();
    let mut chars = text.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '(' => out.push(Token::Open),
            ')' => out.push(Token::Close),
            '"' => {
                let mut s = String::new();
                loop {
                    match chars.next() {
                        Some('"') => break,
                        Some('\\') => match chars.next() {
                            Some(e) => s.push(e),
                            None => return err("unterminated escape in S-expression"),
                        },
                        Some(c) => s.push(c),
                        None => return err("unterminated string in S-expression"),
                    }
                }
                out.push(Token::Str(s));
            }
            c if c.is_whitespace() => {}
            c => {
                let mut atom = String::new();
                atom.push(c);
                while let Some(&n) = chars.peek() {
                    if n.is_whitespace() || n == '(' || n == ')' || n == '"' {
                        break;
                    }
                    atom.push(n);
                    chars.next();
                }
                out.push(Token::Atom(atom));
            }
        }
    }
    Ok(out)
}

fn parse_tokens(tokens: &mut Vec<Token>) -> Result<SExpr, ImportError> {
    match tokens.pop() {
        Some(Token::Open) => {
            let mut items = Vec::new();
            loop {
                match tokens.last() {
                    Some(Token::Close) => {
                        tokens.pop();
                        return Ok(SExpr::List(items));
                    }
                    Some(_) => items.push(parse_tokens(tokens)?),
                    None => return err("unbalanced S-expression"),
                }
            }
        }
        Some(Token::Close) => err("unexpected ')' in S-expression"),
        Some(Token::Atom(a)) => Ok(SExpr::Atom(a)),
        Some(Token::Str(s)) => Ok(SExpr::Str(s)),
        None => err("empty S-expression"),
    }
}

impl SExpr {
    fn list(&self) -> Result<&[SExpr], ImportError> {
        match self {
            SExpr::List(items) => Ok(items),
            _ => err("expected S-expression list"),
        }
    }

    fn atom(&self) -> Result<&str, ImportError> {
        match self {
            SExpr::Atom(a) => Ok(a),
            _ => err("expected S-expression atom"),
        }
    }

    fn string(&self) -> Result<&str, ImportError> {
        match self {
            SExpr::Str(s) => Ok(s),
            _ => err("expected quoted name in S-expression"),
        }
    }

    fn number(&self) -> Result<u32, ImportError> {
        self.atom()?.parse::<u32>().map_err(|_| ImportError::new("expected number"))
    }
}

fn const_from_string(text: &str) -> Result<Logic, ImportError> {
    let width = text.chars().count() as u32;
    if width == 0 || width > 128 {
        return err(format!("constant width {width} out of range 1..=128"));
    }
    let (mut val, mut xz) = (0u128, 0u128);
    // MSB-first in the string.
    for (i, c) in text.chars().rev().enumerate() {
        let (v, x) = match c {
            '0' => (0, 0),
            '1' => (1, 0),
            'x' => (0, 1),
            'z' => (1, 1),
            _ => return err(format!("bad constant digit '{c}'")),
        };
        val |= v << i;
        xz |= x << i;
    }
    Ok(Logic::from_planes(width, val, xz))
}

struct SexprCtx<'a> {
    design: &'a Design,
}

impl SexprCtx<'_> {
    fn signal(&self, name: &SExpr) -> Result<SignalId, ImportError> {
        let name = name.string()?;
        self.design
            .signal_id(name)
            .ok_or_else(|| ImportError::new(format!("unknown signal '{name}'")))
    }

    fn expr(&self, s: &SExpr) -> Result<LExpr, ImportError> {
        let items = s.list()?;
        let [head, rest @ ..] = items else { return err("empty expression") };
        let kind = head.atom()?;
        let width = |i: usize| -> Result<u32, ImportError> {
            rest.get(i).ok_or_else(|| ImportError::new("missing width"))?.number()
        };
        match (kind, rest) {
            ("const", [w, text]) => Ok(LExpr {
                kind: LExprKind::Const(const_from_string(text.string()?)?),
                width: w.number()?,
            }),
            ("sig", [w, name]) => {
                Ok(LExpr { kind: LExprKind::Sig(self.signal(name)?), width: w.number()? })
            }
            ("word", [w, name, index]) => Ok(LExpr {
                kind: LExprKind::Word(self.signal(name)?, Box::new(self.expr(index)?)),
                width: w.number()?,
            }),
            ("bitsel", [w, name, index]) => Ok(LExpr {
                kind: LExprKind::BitSel(self.signal(name)?, Box::new(self.expr(index)?)),
                width: w.number()?,
            }),
            ("part", [w, name, off]) => Ok(LExpr {
                kind: LExprKind::PartSel(self.signal(name)?, off.number()?),
                width: w.number()?,
            }),
            ("un", [w, op, a]) => {
                let op =
                    unop_from(op.atom()?).ok_or_else(|| ImportError::new("unknown unary op"))?;
                Ok(LExpr {
                    kind: LExprKind::Unary(op, Box::new(self.expr(a)?)),
                    width: w.number()?,
                })
            }
            ("bin", [w, op, a, b]) => {
                let op =
                    binop_from(op.atom()?).ok_or_else(|| ImportError::new("unknown binary op"))?;
                Ok(LExpr {
                    kind: LExprKind::Binary(op, Box::new(self.expr(a)?), Box::new(self.expr(b)?)),
                    width: w.number()?,
                })
            }
            ("tern", [w, c, t, f]) => Ok(LExpr {
                kind: LExprKind::Ternary(
                    Box::new(self.expr(c)?),
                    Box::new(self.expr(t)?),
                    Box::new(self.expr(f)?),
                ),
                width: w.number()?,
            }),
            ("cat", [_, ..]) => {
                let items: Result<Vec<LExpr>, _> = rest[1..].iter().map(|i| self.expr(i)).collect();
                Ok(LExpr { kind: LExprKind::Concat(items?), width: width(0)? })
            }
            _ => err(format!("malformed expression '({kind} …)'")),
        }
    }

    fn target(&self, s: &SExpr) -> Result<LTarget, ImportError> {
        let items = s.list()?;
        let [head, rest @ ..] = items else { return err("empty target") };
        match (head.atom()?, rest) {
            ("whole", [name]) => Ok(LTarget::Whole(self.signal(name)?)),
            ("bit", [name, index]) => Ok(LTarget::Bit(self.signal(name)?, self.expr(index)?)),
            ("part", [name, off, w]) => {
                Ok(LTarget::Part(self.signal(name)?, off.number()?, w.number()?))
            }
            ("word", [name, index]) => Ok(LTarget::Word(self.signal(name)?, self.expr(index)?)),
            ("tcat", parts) => {
                let parts: Result<Vec<LTarget>, _> = parts.iter().map(|p| self.target(p)).collect();
                Ok(LTarget::Concat(parts?))
            }
            (kind, _) => err(format!("malformed target '({kind} …)'")),
        }
    }

    fn stmt(&self, s: &SExpr) -> Result<LStmt, ImportError> {
        let items = s.list()?;
        let [head, rest @ ..] = items else { return err("empty statement") };
        match (head.atom()?, rest) {
            ("block", stmts) => {
                let stmts: Result<Vec<LStmt>, _> = stmts.iter().map(|s| self.stmt(s)).collect();
                Ok(LStmt::Block(stmts?))
            }
            ("assign", [mode, target, value]) => Ok(LStmt::Assign {
                lhs: self.target(target)?,
                rhs: self.expr(value)?,
                blocking: match mode.atom()? {
                    "b" => true,
                    "n" => false,
                    m => return err(format!("bad assign mode '{m}'")),
                },
                span: Span::default(),
            }),
            ("if", [cond, then_branch]) => Ok(LStmt::If {
                cond: self.expr(cond)?,
                then_branch: Box::new(self.stmt(then_branch)?),
                else_branch: None,
                span: Span::default(),
            }),
            ("if", [cond, then_branch, else_branch]) => Ok(LStmt::If {
                cond: self.expr(cond)?,
                then_branch: Box::new(self.stmt(then_branch)?),
                else_branch: Some(Box::new(self.stmt(else_branch)?)),
                span: Span::default(),
            }),
            (kind @ ("case" | "casez" | "casex"), [sel, arms @ ..]) => {
                let case_kind = match kind {
                    "case" => CaseKind::Case,
                    "casez" => CaseKind::Casez,
                    _ => CaseKind::Casex,
                };
                let mut parsed_arms = Vec::new();
                let mut default = None;
                for arm in arms {
                    let arm_items = arm.list()?;
                    match arm_items {
                        [h, labels, body] if h.atom() == Ok("arm") => {
                            let labels: Result<Vec<LExpr>, _> =
                                labels.list()?.iter().map(|l| self.expr(l)).collect();
                            parsed_arms.push((labels?, self.stmt(body)?));
                        }
                        [h, body] if h.atom() == Ok("default") => {
                            if default.is_some() {
                                return err("duplicate case default");
                            }
                            default = Some(Box::new(self.stmt(body)?));
                        }
                        _ => return err("malformed case arm"),
                    }
                }
                Ok(LStmt::Case {
                    kind: case_kind,
                    expr: self.expr(sel)?,
                    arms: parsed_arms,
                    default,
                    span: Span::default(),
                })
            }
            ("nop", []) => Ok(LStmt::Nop),
            (kind, _) => err(format!("malformed statement '({kind} …)'")),
        }
    }

    fn trigger(&self, s: &SExpr) -> Result<Trigger, ImportError> {
        let items = s.list()?;
        let [head, rest @ ..] = items else { return err("empty trigger") };
        match (head.atom()?, rest) {
            ("comb", deps) => {
                let deps: Result<Vec<SignalId>, _> = deps.iter().map(|d| self.signal(d)).collect();
                Ok(Trigger::Comb(deps?))
            }
            ("seq", edges) => {
                let mut out = Vec::new();
                for entry in edges {
                    let [name, edge] = entry.list()? else {
                        return err("malformed seq edge");
                    };
                    let edge = match edge.atom()? {
                        "pos" => Some(Edge::Pos),
                        "neg" => Some(Edge::Neg),
                        "any" => None,
                        e => return err(format!("bad edge '{e}'")),
                    };
                    out.push((self.signal(name)?, edge));
                }
                Ok(Trigger::Seq(out))
            }
            ("initial", []) => Ok(Trigger::Initial),
            (kind, _) => err(format!("malformed trigger '({kind} …)'")),
        }
    }
}

// ===========================================================================
// Import
// ===========================================================================

/// Imports a Yosys-JSON document holding exactly one module.
pub fn import_str(text: &str) -> Result<Design, ImportError> {
    let json = Json::parse(text).map_err(|e| ImportError::new(format!("bad JSON: {e}")))?;
    import(&json)
}

/// Imports a parsed Yosys-JSON document holding exactly one module.
pub fn import(json: &Json) -> Result<Design, ImportError> {
    let Some(Json::Obj(modules)) = json.get("modules") else {
        return err("missing 'modules' object");
    };
    let [(name, module)] = modules.as_slice() else {
        return err(format!("expected exactly one module, found {}", modules.len()));
    };
    import_module(name, module)
}

fn obj<'a>(json: &'a Json, key: &str) -> Result<&'a [(String, Json)], ImportError> {
    match json.get(key) {
        Some(Json::Obj(members)) => Ok(members),
        None => Ok(&[]),
        _ => err(format!("'{key}' is not an object")),
    }
}

fn attr_kind(attrs: Option<&Json>) -> SignalKind {
    match attrs.and_then(|a| a.get("uvllm_kind")).and_then(Json::as_str) {
        Some("var") => SignalKind::Var,
        _ => SignalKind::Net,
    }
}

fn attr_lsb(attrs: Option<&Json>) -> u32 {
    attrs.and_then(|a| a.get("uvllm_lsb")).and_then(Json::as_u64).unwrap_or(0) as u32
}

/// One pending alias bit: this signal's bit `offset` is driven by an
/// already-owned net bit or a constant.
struct AliasBit {
    signal: SignalId,
    offset: u32,
    source: Bit,
}

struct Importer {
    design: Design,
    /// Global bit id → owning (signal, bit offset).
    owners: HashMap<u64, (SignalId, u32)>,
    aliases: Vec<AliasBit>,
}

fn import_module(name: &str, module: &Json) -> Result<Design, ImportError> {
    let mut imp =
        Importer { design: Design::new_empty(name), owners: HashMap::new(), aliases: Vec::new() };
    let netnames = obj(module, "netnames")?;
    let attrs_of = |name: &str| -> Option<&Json> {
        netnames.iter().find(|(n, _)| n == name).and_then(|(_, v)| v.get("attributes"))
    };

    // Ports first (their declaration order fixes the port lists and the
    // re-export bit-id layout), then the remaining netnames, then
    // memories, then cells.
    for (port_name, port) in obj(module, "ports")? {
        let direction = port
            .get("direction")
            .and_then(Json::as_str)
            .ok_or_else(|| ImportError::new(format!("port '{port_name}': no direction")))?;
        let (is_input, is_output) = match direction {
            "input" => (true, false),
            "output" => (false, true),
            d => return err(format!("port '{port_name}': unsupported direction '{d}'")),
        };
        let attrs = attrs_of(port_name);
        imp.add_scalar(port_name, port.get("bits"), attrs, is_input, is_output)?;
    }
    for (net_name, net) in netnames {
        if imp.design.signal_id(net_name).is_some() {
            continue;
        }
        imp.add_scalar(net_name, net.get("bits"), net.get("attributes"), false, false)?;
    }
    for (mem_name, mem) in obj(module, "memories")? {
        let width = get_u32(mem, "width")
            .ok_or_else(|| ImportError::new(format!("memory '{mem_name}': no width")))?;
        let size = get_u32(mem, "size")
            .ok_or_else(|| ImportError::new(format!("memory '{mem_name}': no size")))?;
        let attrs = mem.get("attributes");
        imp.design
            .add_signal(SignalInfo {
                name: mem_name.clone(),
                width,
                kind: match attrs.is_some_and(|a| a.get("uvllm_kind").is_some()) {
                    true => attr_kind(attrs),
                    false => SignalKind::Var,
                },
                words: size,
                lsb: attr_lsb(attrs),
                array_lo: get_u32(mem, "start_offset").unwrap_or(0),
                is_input: false,
                is_output: false,
            })
            .map_err(ImportError::new)?;
    }

    for (cell_name, cell) in obj(module, "cells")? {
        imp.add_cell(cell_name, cell)?;
    }
    imp.flush_aliases();
    Ok(imp.design)
}

fn get_u32(json: &Json, key: &str) -> Option<u32> {
    json.get(key).and_then(Json::as_u64).map(|n| n as u32)
}

/// Parses one connection bit (net id or constant digit string).
fn parse_bit(b: &Json) -> Result<Bit, ImportError> {
    match b {
        Json::Num(_) => Ok(Bit::Id(
            b.as_u64().ok_or_else(|| ImportError::new("bit ids must be non-negative integers"))?,
        )),
        Json::Str(s) => match s.as_str() {
            "0" => Ok(Bit::Const('0')),
            "1" => Ok(Bit::Const('1')),
            "x" => Ok(Bit::Const('x')),
            "z" => Ok(Bit::Const('z')),
            _ => err(format!("bad constant bit '{s}'")),
        },
        _ => err("connection bits must be numbers or constant strings"),
    }
}

fn parse_bits(bits: Option<&Json>, what: &str) -> Result<Vec<Bit>, ImportError> {
    let Some(Json::Arr(items)) = bits else {
        return err(format!("{what}: missing bits array"));
    };
    items.iter().map(parse_bit).collect()
}

impl Importer {
    fn add_scalar(
        &mut self,
        name: &str,
        bits: Option<&Json>,
        attrs: Option<&Json>,
        is_input: bool,
        is_output: bool,
    ) -> Result<(), ImportError> {
        let bits = parse_bits(bits, &format!("net '{name}'"))?;
        let width = bits.len() as u32;
        let id = self
            .design
            .add_signal(SignalInfo {
                name: name.into(),
                width,
                kind: attr_kind(attrs),
                words: 1,
                lsb: attr_lsb(attrs),
                array_lo: 0,
                is_input,
                is_output,
            })
            .map_err(ImportError::new)?;
        for (offset, bit) in bits.into_iter().enumerate() {
            let offset = offset as u32;
            match bit {
                Bit::Id(bid) if !self.owners.contains_key(&bid) => {
                    self.owners.insert(bid, (id, offset));
                }
                // Aliased or constant bit: this net re-names another
                // net's bit (or a constant) — synthesise a driver.
                source => self.aliases.push(AliasBit { signal: id, offset, source }),
            }
        }
        Ok(())
    }

    /// Resolves connection bits to a canonical read expression:
    /// maximal runs of consecutive signal bits / constant digits,
    /// concatenated MSB-first.
    fn expr_of_bits(&self, bits: &[Bit], what: &str) -> Result<LExpr, ImportError> {
        if bits.is_empty() {
            return err(format!("{what}: empty connection"));
        }
        // LSB-first runs.
        enum Run {
            Sig(SignalId, u32, u32),
            Const(Vec<char>),
        }
        let mut runs: Vec<Run> = Vec::new();
        for bit in bits {
            match *bit {
                Bit::Id(bid) => {
                    let &(sig, off) = self.owners.get(&bid).ok_or_else(|| {
                        ImportError::new(format!("{what}: undeclared bit id {bid}"))
                    })?;
                    match runs.last_mut() {
                        Some(Run::Sig(s, start, len)) if *s == sig && *start + *len == off => {
                            *len += 1;
                        }
                        _ => runs.push(Run::Sig(sig, off, 1)),
                    }
                }
                Bit::Const(c) => match runs.last_mut() {
                    Some(Run::Const(chars)) => chars.push(c),
                    _ => runs.push(Run::Const(vec![c])),
                },
            }
        }
        let exprs: Vec<LExpr> = runs
            .into_iter()
            .map(|run| match run {
                Run::Sig(sig, start, len) => {
                    let info = self.design.signal(sig);
                    if start == 0 && len == info.width {
                        LExpr { kind: LExprKind::Sig(sig), width: len }
                    } else {
                        LExpr { kind: LExprKind::PartSel(sig, start), width: len }
                    }
                }
                Run::Const(chars) => {
                    let width = chars.len() as u32;
                    let (mut val, mut xz) = (0u128, 0u128);
                    for (i, c) in chars.into_iter().enumerate() {
                        let (v, x) = match c {
                            '0' => (0, 0),
                            '1' => (1, 0),
                            'x' => (0, 1),
                            _ => (1, 1),
                        };
                        val |= v << i;
                        xz |= x << i;
                    }
                    LExpr { kind: LExprKind::Const(Logic::from_planes(width, val, xz)), width }
                }
            })
            .collect();
        let total = bits.len() as u32;
        if total > 128 {
            return err(format!("{what}: connection wider than 128 bits"));
        }
        match <[LExpr; 1]>::try_from(exprs) {
            Ok([single]) => Ok(single),
            // Concat items are MSB-first; runs were built LSB-first.
            Err(multi) => Ok(LExpr {
                kind: LExprKind::Concat(multi.into_iter().rev().collect()),
                width: total,
            }),
        }
    }

    /// Resolves output-connection bits to a write target.
    fn target_of_bits(&self, bits: &[Bit], what: &str) -> Result<LTarget, ImportError> {
        let mut runs: Vec<(SignalId, u32, u32)> = Vec::new();
        for bit in bits {
            let Bit::Id(bid) = *bit else {
                return err(format!("{what}: constant bit in output connection"));
            };
            let &(sig, off) = self
                .owners
                .get(&bid)
                .ok_or_else(|| ImportError::new(format!("{what}: undeclared bit id {bid}")))?;
            match runs.last_mut() {
                Some((s, start, len)) if *s == sig && *start + *len == off => *len += 1,
                _ => runs.push((sig, off, 1)),
            }
        }
        let targets: Vec<LTarget> = runs
            .into_iter()
            .map(|(sig, start, len)| {
                if start == 0 && len == self.design.signal(sig).width {
                    LTarget::Whole(sig)
                } else {
                    LTarget::Part(sig, start, len)
                }
            })
            .collect();
        match <[LTarget; 1]>::try_from(targets) {
            Ok([single]) => Ok(single),
            Err(multi) => Ok(LTarget::Concat(multi.into_iter().rev().collect())),
        }
    }

    /// A 1-bit connection that names a whole 1-bit signal (clock /
    /// reset lines of flop cells).
    fn control_signal(&self, bits: &[Bit], what: &str) -> Result<SignalId, ImportError> {
        let [Bit::Id(bid)] = bits else {
            return err(format!("{what}: expected a single-bit net"));
        };
        let &(sig, off) = self
            .owners
            .get(bid)
            .ok_or_else(|| ImportError::new(format!("{what}: undeclared bit id {bid}")))?;
        if off != 0 || self.design.signal(sig).width != 1 {
            return err(format!("{what}: control nets must be whole 1-bit signals"));
        }
        Ok(sig)
    }

    fn connection(&self, cell: &Json, port: &str, what: &str) -> Result<Vec<Bit>, ImportError> {
        let conns = cell
            .get("connections")
            .ok_or_else(|| ImportError::new(format!("{what}: missing connections object")))?;
        parse_bits(conns.get(port), &format!("{what}.{port}"))
    }

    fn comb_assign(&mut self, target: LTarget, rhs: LExpr) {
        let deps = expr_signals(&rhs);
        self.design.add_process(Process {
            trigger: Trigger::Comb(deps),
            body: LStmt::Assign { lhs: target, rhs, blocking: true, span: Span::default() },
            span: Span::default(),
        });
    }

    fn add_cell(&mut self, name: &str, cell: &Json) -> Result<(), ImportError> {
        let ty = cell
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| ImportError::new(format!("cell '{name}': missing type")))?;
        let what = format!("cell '{name}' ({ty})");

        if ty == "$uvllm.process" {
            let params = cell
                .get("parameters")
                .ok_or_else(|| ImportError::new(format!("{what}: missing parameters")))?;
            let body_text = params
                .get("BODY")
                .and_then(Json::as_str)
                .ok_or_else(|| ImportError::new(format!("{what}: missing BODY")))?;
            let trigger_text = params
                .get("TRIGGER")
                .and_then(Json::as_str)
                .ok_or_else(|| ImportError::new(format!("{what}: missing TRIGGER")))?;
            let ctx = SexprCtx { design: &self.design };
            let body = ctx.stmt(&parse_sexpr(body_text)?)?;
            let trigger = ctx.trigger(&parse_sexpr(trigger_text)?)?;
            self.design.add_process(Process { trigger, body, span: Span::default() });
            return Ok(());
        }

        if let Some(op) = binary_op_of_cell(ty) {
            let a = self.expr_of_bits(&self.connection(cell, "A", &what)?, &what)?;
            let b = self.expr_of_bits(&self.connection(cell, "B", &what)?, &what)?;
            let target = self.target_of_bits(&self.connection(cell, "Y", &what)?, &what)?;
            let width = binary_result_width(op, &a, &b);
            let rhs = LExpr { kind: LExprKind::Binary(op, Box::new(a), Box::new(b)), width };
            self.comb_assign(target, rhs);
            return Ok(());
        }
        if let Some(op) = unary_op_of_cell(ty) {
            let a = self.expr_of_bits(&self.connection(cell, "A", &what)?, &what)?;
            let target = self.target_of_bits(&self.connection(cell, "Y", &what)?, &what)?;
            let width = unary_result_width(op, &a);
            let rhs = LExpr { kind: LExprKind::Unary(op, Box::new(a)), width };
            self.comb_assign(target, rhs);
            return Ok(());
        }
        match ty {
            "$mux" => {
                let f = self.expr_of_bits(&self.connection(cell, "A", &what)?, &what)?;
                let t = self.expr_of_bits(&self.connection(cell, "B", &what)?, &what)?;
                let s = self.expr_of_bits(&self.connection(cell, "S", &what)?, &what)?;
                let target = self.target_of_bits(&self.connection(cell, "Y", &what)?, &what)?;
                let width = t.width.max(f.width);
                let rhs = LExpr {
                    kind: LExprKind::Ternary(Box::new(s), Box::new(t), Box::new(f)),
                    width,
                };
                self.comb_assign(target, rhs);
                Ok(())
            }
            "$dff" => {
                let clk = self.control_signal(&self.connection(cell, "CLK", &what)?, &what)?;
                let d = self.expr_of_bits(&self.connection(cell, "D", &what)?, &what)?;
                let q = self.target_of_bits(&self.connection(cell, "Q", &what)?, &what)?;
                let edge = clk_edge(cell, "CLK_POLARITY");
                self.design.add_process(Process {
                    trigger: Trigger::Seq(vec![(clk, Some(edge))]),
                    body: LStmt::Assign { lhs: q, rhs: d, blocking: false, span: Span::default() },
                    span: Span::default(),
                });
                Ok(())
            }
            "$adff" => {
                let clk = self.control_signal(&self.connection(cell, "CLK", &what)?, &what)?;
                let arst = self.control_signal(&self.connection(cell, "ARST", &what)?, &what)?;
                let d = self.expr_of_bits(&self.connection(cell, "D", &what)?, &what)?;
                let q = self.target_of_bits(&self.connection(cell, "Q", &what)?, &what)?;
                let width = d.width;
                let clk_edge = clk_edge(cell, "CLK_POLARITY");
                let arst_pol = param_u64(cell, "ARST_POLARITY").unwrap_or(1) != 0;
                let value = param_logic(cell, "ARST_VALUE", width)
                    .unwrap_or_else(|| Logic::zeros(width.max(1)));
                let arst_read = LExpr { kind: LExprKind::Sig(arst), width: 1 };
                let cond = if arst_pol {
                    arst_read
                } else {
                    LExpr { kind: LExprKind::Unary(UnaryOp::LogNot, Box::new(arst_read)), width: 1 }
                };
                let reset_value = LExpr { kind: LExprKind::Const(value), width: width.max(1) };
                self.design.add_process(Process {
                    trigger: Trigger::Seq(vec![
                        (clk, Some(clk_edge)),
                        (arst, Some(if arst_pol { Edge::Pos } else { Edge::Neg })),
                    ]),
                    body: LStmt::If {
                        cond,
                        then_branch: Box::new(LStmt::Assign {
                            lhs: q.clone(),
                            rhs: reset_value,
                            blocking: false,
                            span: Span::default(),
                        }),
                        else_branch: Some(Box::new(LStmt::Assign {
                            lhs: q,
                            rhs: d,
                            blocking: false,
                            span: Span::default(),
                        })),
                        span: Span::default(),
                    },
                    span: Span::default(),
                });
                Ok(())
            }
            _ => err(format!("{what}: unsupported cell type")),
        }
    }

    /// Emits buffer processes for alias/constant netname bits,
    /// grouping consecutive offsets fed from consecutive sources.
    fn flush_aliases(&mut self) {
        let aliases = std::mem::take(&mut self.aliases);
        let mut i = 0;
        while i < aliases.len() {
            let first = &aliases[i];
            let mut bits = vec![first.source];
            let mut j = i + 1;
            while j < aliases.len() {
                let prev = &aliases[j - 1];
                let next = &aliases[j];
                let contiguous = next.signal == prev.signal && next.offset == prev.offset + 1;
                if !contiguous {
                    break;
                }
                bits.push(next.source);
                j += 1;
            }
            let len = (j - i) as u32;
            let info = self.design.signal(first.signal);
            let target = if first.offset == 0 && len == info.width {
                LTarget::Whole(first.signal)
            } else {
                LTarget::Part(first.signal, first.offset, len)
            };
            if let Ok(rhs) = self.expr_of_bits(&bits, "alias net") {
                self.comb_assign(target, rhs);
            }
            i = j;
        }
    }
}

fn binary_op_of_cell(ty: &str) -> Option<BinaryOp> {
    use BinaryOp::*;
    Some(match ty {
        "$add" => Add,
        "$sub" => Sub,
        "$mul" => Mul,
        "$div" => Div,
        "$mod" => Mod,
        "$pow" => Pow,
        "$shl" | "$sshl" => Shl,
        "$shr" => Shr,
        "$sshr" => AShr,
        "$lt" => Lt,
        "$le" => Le,
        "$gt" => Gt,
        "$ge" => Ge,
        "$eq" => Eq,
        "$ne" => Ne,
        "$eqx" => CaseEq,
        "$nex" => CaseNe,
        "$logic_and" => LogAnd,
        "$logic_or" => LogOr,
        "$and" => BitAnd,
        "$or" => BitOr,
        "$xor" => BitXor,
        "$xnor" => BitXnor,
        _ => return None,
    })
}

fn unary_op_of_cell(ty: &str) -> Option<UnaryOp> {
    use UnaryOp::*;
    Some(match ty {
        "$not" => BitNot,
        "$neg" => Neg,
        "$pos" => Plus,
        "$logic_not" => LogNot,
        "$reduce_and" => RedAnd,
        // $reduce_bool (Y = A != 0) coincides with |A for the unsigned
        // subset this importer supports.
        "$reduce_or" | "$reduce_bool" => RedOr,
        "$reduce_xor" => RedXor,
        "$reduce_xnor" => RedXnor,
        _ => return None,
    })
}

/// Self-determined result widths per this simulator's elaboration
/// rules (unsigned): arithmetic takes the operand max, comparisons and
/// logic are 1 bit, shifts follow the shifted operand.
fn binary_result_width(op: BinaryOp, a: &LExpr, b: &LExpr) -> u32 {
    use BinaryOp::*;
    match op {
        Add | Sub | Mul | Div | Mod | BitAnd | BitOr | BitXor | BitXnor => a.width.max(b.width),
        Pow | Shl | Shr | AShr => a.width,
        Lt | Le | Gt | Ge | Eq | Ne | CaseEq | CaseNe | LogAnd | LogOr => 1,
    }
}

fn unary_result_width(op: UnaryOp, a: &LExpr) -> u32 {
    use UnaryOp::*;
    match op {
        BitNot | Neg | Plus => a.width,
        LogNot | RedAnd | RedOr | RedXor | RedNand | RedNor | RedXnor => 1,
    }
}

fn clk_edge(cell: &Json, key: &str) -> Edge {
    if param_u64(cell, key).unwrap_or(1) != 0 {
        Edge::Pos
    } else {
        Edge::Neg
    }
}

fn param_u64(cell: &Json, key: &str) -> Option<u64> {
    let v = cell.get("parameters")?.get(key)?;
    match v {
        Json::Num(_) => v.as_u64(),
        // Yosys also emits parameters as binary digit strings.
        Json::Str(s) if s.bytes().all(|b| b == b'0' || b == b'1') && !s.is_empty() => {
            u64::from_str_radix(s, 2).ok()
        }
        _ => None,
    }
}

fn param_logic(cell: &Json, key: &str, width: u32) -> Option<Logic> {
    let width = width.max(1);
    let v = cell.get("parameters")?.get(key)?;
    match v {
        Json::Num(_) => v.as_u64().map(|n| Logic::from_u128(width, n as u128)),
        Json::Str(s) => const_from_string(s).ok().map(|l| l.resize(width)),
        _ => None,
    }
}
