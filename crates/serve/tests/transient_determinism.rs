//! The determinism contract for `"transient"` requests, the only kind whose
//! outcome the `LCOSC_SOLVER` hatch can change: payloads are byte-identical
//! across worker thread counts and cache states, and a repeat solve renders
//! the same bytes. `determinism.rs` holds the same contract for the whole
//! request mix; this target keeps the transient part small enough to run
//! under every forced solver path.

mod common;

/// An RC ladder deck: a DC source into `sections` series-R, shunt-C stages.
fn rc_ladder_elements(sections: usize) -> String {
    let mut elements = vec![
        r#"{"kind":"vsource","p":"n0","n":"gnd","wave":{"type":"dc","value":1.0}}"#.to_string(),
    ];
    for k in 1..=sections {
        elements.push(format!(
            r#"{{"kind":"resistor","a":"n{}","b":"n{k}","ohms":100.0}}"#,
            k - 1
        ));
        elements.push(format!(
            r#"{{"kind":"capacitor","a":"n{k}","b":"gnd","farads":1e-10}}"#
        ));
    }
    elements.join(",")
}

/// One transient request per solver path `Auto` picks: dense linear (an RC
/// stage), dense Newton (a diode clamp) and sparse linear (a 70-section
/// ladder, 72 MNA unknowns).
fn transient_batch() -> Vec<String> {
    vec![
        r#"{"id":0,"kind":"transient","deck":{"elements":[
            {"kind":"vsource","p":"in","n":"gnd","wave":{"type":"dc","value":1.0}},
            {"kind":"resistor","a":"in","b":"out","ohms":1000.0},
            {"kind":"capacitor","a":"out","b":"gnd","farads":1e-6}
        ]},"dt":1e-5,"t_end":5e-3}"#
            .replace('\n', ""),
        r#"{"id":1,"kind":"transient","deck":{"elements":[
            {"kind":"vsource","p":"in","n":"gnd","wave":{"type":"sine","amplitude":1.5,"frequency":5e5}},
            {"kind":"resistor","a":"in","b":"out","ohms":1000.0},
            {"kind":"diode","anode":"out","cathode":"gnd"},
            {"kind":"capacitor","a":"out","b":"gnd","farads":1e-9}
        ]},"dt":1e-8,"t_end":4e-6}"#
            .replace('\n', ""),
        format!(
            r#"{{"id":2,"kind":"transient","deck":{{"elements":[{}]}},"dt":1e-9,"t_end":2e-8}}"#,
            rc_ladder_elements(70)
        ),
    ]
}

#[test]
fn transient_responses_are_byte_identical_across_thread_counts() {
    let replies = common::assert_thread_count_invariant(&transient_batch());
    // Unforced, only the ladder crosses `Auto`'s sparse threshold.
    if std::env::var_os("LCOSC_SOLVER").is_none() {
        for (reply, sparse) in replies.iter().zip([false, false, true]) {
            assert!(
                reply.contains(&format!("\"used_sparse_path\":{sparse}")),
                "{reply}"
            );
        }
    }
}

#[test]
fn transient_cold_and_warmed_cache_produce_identical_bytes() {
    common::assert_cache_state_invariant(&transient_batch());
}

#[test]
fn execute_renders_the_same_bytes_on_a_repeat_sparse_solve() {
    // A 97-section RC ladder: 99 MNA unknowns, so `Auto` takes the sparse
    // path, and no other test in this binary solves this structure. The
    // first solve computes the symbolic analysis and the second reuses it
    // from the process-wide cache; the rendered payload must not tell the
    // two apart, or the result cache could hold bytes a later identical
    // computation does not reproduce.
    let line = format!(
        r#"{{"id":1,"kind":"transient","deck":{{"elements":[{}]}},"dt":1e-9,"t_end":2e-8}}"#,
        rc_ladder_elements(97)
    );
    let request = lcosc_serve::parse_request(&lcosc_campaign::Json::parse(&line).expect("json"))
        .expect("valid request");
    let first = lcosc_serve::execute(&request).expect("solves").render();
    let second = lcosc_serve::execute(&request).expect("solves").render();
    // `LCOSC_SOLVER=reference|dense` moves the solve off the sparse path;
    // the byte compare holds on every path.
    if !std::env::var("LCOSC_SOLVER").is_ok_and(|v| v == "reference" || v == "dense") {
        assert!(first.contains("\"used_sparse_path\":true"), "{first}");
    }
    assert_eq!(first, second, "a repeat solve rendered different bytes");
}
