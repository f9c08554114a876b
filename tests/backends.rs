//! Campaign-level outcome guarantees: an oscillating DUT surfaces
//! `SimError::Unstable` through the campaign `ResultSink` as a distinct
//! outcome row instead of a crash, and rows written before the
//! `backend` / `outcome` members existed still decode.

use uvllm::{build_instance, Verdict};
use uvllm_campaign::{EvalRow, MemorySink, MethodKind, ResultSink};
use uvllm_errgen::ErrorKind;

/// An oscillating cross-coupled DUT must flow through evaluation and the
/// result sink as a distinct `unstable` outcome row carrying the
/// activation cap — not panic, not a bare `fixed: false`.
#[test]
fn unstable_design_becomes_a_distinct_outcome_row() {
    // Take a real benchmark instance, then swap its mutated source for
    // an interface-compatible adder whose cross-coupled always blocks
    // oscillate as soon as stimulus drives a[0] high.
    let d = uvllm_designs::by_name("adder_8bit").unwrap();
    let mut inst = build_instance(d, ErrorKind::OperatorMisuse, 5).expect("instance");
    inst.mutated_src = "module adder_8bit(\n  input [7:0] a,\n  input [7:0] b,\n  input cin,\n\
                        \x20 output [7:0] sum,\n  output cout\n);\nreg p;\nreg q;\n\
                        assign sum = {7'd0, p};\nassign cout = q;\n\
                        always @(*) begin\nif (a[0]) begin\ncase (q)\n1'b0: p = 1'b1;\n\
                        default: p = 1'b0;\nendcase\nend else\np = 1'b0;\nend\n\
                        always @(*) begin\nif (a[0]) begin\ncase (p)\n1'b0: q = 1'b0;\n\
                        default: q = 1'b1;\nendcase\nend else\nq = 1'b0;\nend\nendmodule\n"
        .to_string();

    // Strider is scripted (no LLM) and cannot repair this shape, so the
    // final code still oscillates when the metrics re-check it.
    let record = uvllm_campaign::evaluate_one(MethodKind::Strider, &inst);
    assert!(!record.fixed);
    assert_eq!(
        record.fix_outcome,
        Verdict::Unstable { activations: uvllm_sim::MAX_ACTIVATIONS },
        "oscillation must be classified, with the activation cap"
    );

    // The row lands in a campaign sink as a distinct outcome.
    let mut sink = MemorySink::new();
    let row = record.to_row();
    sink.append(&row).unwrap();
    assert_eq!(sink.rows()[0].outcome, "unstable");
    assert_eq!(sink.rows()[0].backend, "event");

    // And survives the JSONL round trip.
    let back = EvalRow::from_json_line(&row.to_json_line()).unwrap();
    assert_eq!(back, row);
    assert_eq!(back.outcome, "unstable");
}

/// Pre-schema JSONL rows (no `backend` / `outcome` members) still decode
/// with their historical implicit values, so old campaign files resume.
#[test]
fn legacy_rows_decode_with_default_backend_and_outcome() {
    let line = "{\"id\":\"adder_8bit/operator_misuse#5@Strider\",\
                \"instance\":\"adder_8bit/operator_misuse#5\",\"design\":\"adder_8bit\",\
                \"group\":\"Arithmetic\",\"kind\":\"operator_misuse\",\"syntax\":false,\
                \"category\":\"Flawed conditions\",\"method\":\"Strider\",\"hit\":false,\
                \"fixed\":true,\"claimed\":true,\"llm_calls\":0,\"prompt_tokens\":0,\
                \"completion_tokens\":0,\"sim_latency_ms\":0,\"fixed_by\":null}";
    let row = EvalRow::from_json_line(line).unwrap();
    assert_eq!(row.backend, "event");
    assert_eq!(row.outcome, "pass");
}
