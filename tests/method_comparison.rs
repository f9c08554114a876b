//! Cross-method integration tests: the campaign engine produces the
//! paper's qualitative orderings on a small fixed dataset.

use uvllm_campaign::{Campaign, CampaignConfig, CampaignReport, EvalRow, MemorySink, MethodKind};

/// Runs `methods` over a `size`-instance dataset and reports its rows.
fn campaign(size: usize, seed: u64, methods: &[MethodKind]) -> CampaignReport {
    let config = CampaignConfig {
        dataset_size: size,
        dataset_seed: seed,
        methods: methods.to_vec(),
        workers: 2,
        ..CampaignConfig::default()
    };
    let mut sink = MemorySink::new();
    Campaign::new(config).unwrap().run(&mut sink).unwrap().report
}

fn small_campaign(methods: &[MethodKind]) -> CampaignReport {
    campaign(48, 0x7E57, methods)
}

fn of(method: MethodKind) -> impl Fn(&EvalRow) -> bool {
    move |r| r.method == method.label()
}

fn functional(method: MethodKind) -> impl Fn(&EvalRow) -> bool {
    move |r| r.method == method.label() && !r.syntax
}

#[test]
fn uvllm_beats_baselines_on_fix_rate() {
    let report = small_campaign(&[MethodKind::Uvllm, MethodKind::Meic, MethodKind::GptDirect]);
    let u = report.fr(of(MethodKind::Uvllm));
    let m = report.fr(of(MethodKind::Meic));
    let g = report.fr(of(MethodKind::GptDirect));
    assert!(u > m, "UVLLM {u:.1} should beat MEIC {m:.1}");
    assert!(u > g, "UVLLM {u:.1} should beat GPT-direct {g:.1}");
}

#[test]
fn overfitting_gap_is_larger_for_weakly_tested_methods() {
    let report = small_campaign(&[MethodKind::Uvllm, MethodKind::Meic]);
    let gap = |method| report.hr(functional(method)) - report.fr(functional(method));
    let uvllm_gap = gap(MethodKind::Uvllm);
    let meic_gap = gap(MethodKind::Meic);
    assert!(
        meic_gap > uvllm_gap,
        "MEIC's HR-FR gap ({meic_gap:.1}pp) should exceed UVLLM's ({uvllm_gap:.1}pp)"
    );
}

#[test]
fn template_methods_only_touch_functional_instances() {
    let report = small_campaign(&[MethodKind::Strider]);
    let syntax: Vec<&EvalRow> = report.rows().iter().filter(|r| r.syntax).collect();
    assert!(!syntax.is_empty());
    // Strider never claims success on unparseable inputs.
    assert!(syntax.iter().all(|r| !r.claimed));
    assert!(syntax.iter().all(|r| !r.fixed));
}

#[test]
fn fixed_records_always_hit() {
    // FR is a strict superset of HR's test content, so fixed ⇒ hit for
    // every method — a consistency invariant of the evaluation itself.
    let methods = [MethodKind::Uvllm, MethodKind::Meic, MethodKind::Strider, MethodKind::RtlRepair];
    for row in campaign(24, 0xAB, &methods).rows() {
        if row.fixed {
            assert!(row.hit, "{}: fixed but not hit", row.id);
        }
    }
}

#[test]
fn uvllm_claims_match_reality_more_often_than_meic() {
    // UVLLM's claim = strong UVM testbench; MEIC's claim = weak directed
    // tests. False claims (claimed but not fixed) should be rarer for
    // UVLLM — Result 2 of the paper.
    let report = small_campaign(&[MethodKind::Uvllm, MethodKind::Meic]);
    let count_false = |method| {
        let is_method = functional(method);
        report.rows().iter().filter(|r| is_method(r) && r.claimed && !r.fixed).count()
    };
    let uvllm_false = count_false(MethodKind::Uvllm);
    let meic_false = count_false(MethodKind::Meic);
    assert!(
        uvllm_false <= meic_false,
        "UVLLM false claims ({uvllm_false}) should not exceed MEIC's ({meic_false})"
    );
}
