//! Request execution: maps each [`Request`] kind onto the workspace's
//! existing entry points and renders a deterministic result payload.
//!
//! Every payload is built from integers, strings and finite floats through
//! the byte-stable [`Json`] renderer, so `execute` is a pure function of
//! the request — the property the content-addressed cache and the
//! thread-count determinism guarantee both rest on.

use crate::protocol::{fault_token, CampaignSpec, Request};
use lcosc_campaign::Json;
use lcosc_circuit::{netlist_from_json, run_transient, TransientOptions};
use lcosc_core::Fidelity;
use lcosc_dac::{yield_analysis_campaign, DacMismatchParams};
use lcosc_safety::scenario::{detector_id, run_scenario_mission, SCENARIO_POST_FAULT_TICKS};
use lcosc_safety::FmeaReport;
use lcosc_trace::Trace;

/// Executes one request, returning the result tree or an error message.
///
/// Campaign requests run **serially** (`threads = 1`) inside the calling
/// worker slot: the service's own worker pool is the parallelism layer,
/// and nested fan-out would oversubscribe the host without changing any
/// result (the campaign engine is thread-count invariant by design).
///
/// # Errors
///
/// Returns a human-readable message for the `"error"` field of an
/// `error` response (deck errors, simulation setup failures).
pub fn execute(request: &Request) -> Result<Json, String> {
    match request {
        Request::Transient {
            deck,
            dt,
            t_end,
            record_stride,
        } => {
            let nl = netlist_from_json(deck).map_err(|e| e.to_string())?;
            let mut opts = TransientOptions::new(*dt, *t_end);
            opts.record_stride = *record_stride;
            let result = run_transient(&nl, &opts).map_err(|e| e.to_string())?;
            let stats = result.stats();
            let last = result.len().saturating_sub(1);
            let final_v: Vec<Json> = result
                .voltages_at(last)
                .iter()
                .map(|&v| Json::from(v))
                .collect();
            Ok(Json::obj([
                ("samples", Json::from(result.len())),
                ("steps", Json::from(stats.steps as i64)),
                (
                    "newton_iterations",
                    Json::from(stats.newton_iterations as i64),
                ),
                ("factorizations", Json::from(stats.factorizations as i64)),
                ("factor_reuses", Json::from(stats.factor_reuses as i64)),
                ("used_sparse_path", Json::from(stats.used_sparse_path)),
                (
                    "final_time",
                    Json::from(result.times().last().copied().unwrap_or(0.0)),
                ),
                ("final_v", Json::Array(final_v)),
            ]))
        }
        Request::Scenario { fault, preset } => {
            // The inner simulation's per-tick stream stays detached from
            // the server trace: workers run concurrently and interleaved
            // tick events would not be attributable to a request.
            let result = run_scenario_mission(
                *fault,
                &preset.config(),
                &Trace::off(),
                Fidelity::MultiRate,
                SCENARIO_POST_FAULT_TICKS,
            )
            .map_err(|e| e.to_string())?;
            let detectors: Vec<Json> = result
                .triggered
                .iter()
                .map(|&k| Json::from(detector_id(k).label()))
                .collect();
            Ok(Json::obj([
                ("fault", Json::from(fault_token(*fault))),
                ("preset", Json::from(preset.token())),
                ("detectors", Json::Array(detectors)),
                ("detected", Json::from(result.detected)),
                ("code_saturated", Json::from(result.code_saturated)),
                ("vpp_before", Json::from(result.vpp_before)),
                ("final_vpp", Json::from(result.final_vpp)),
                ("safe", Json::from(result.is_safe())),
            ]))
        }
        Request::Campaign(CampaignSpec::Fmea { preset }) => {
            let report = FmeaReport::run(&preset.config()).map_err(|e| e.to_string())?;
            Ok(report.to_json())
        }
        Request::Campaign(CampaignSpec::Yield { dies, seed, window }) => {
            let run =
                yield_analysis_campaign(&DacMismatchParams::default(), *dies, *seed, *window, 1);
            Ok(run.report.to_json())
        }
        Request::Prove { preset } => {
            let outcome = lcosc_check::prove(&preset.config().prove_facts());
            Ok(Json::obj([
                ("preset", Json::from(preset.token())),
                ("prove", outcome.to_json()),
            ]))
        }
        // Stats and shutdown are answered by the engine itself — they
        // read or mutate server state no worker can see.
        Request::Stats | Request::Shutdown => {
            Err("stats/shutdown are engine-level requests".to_string())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{parse_request, Preset};
    use lcosc_safety::Fault;

    fn rc_deck() -> Json {
        Json::parse(
            r#"{"elements":[
                {"kind":"vsource","p":"in","n":"gnd","wave":{"type":"dc","value":1.0}},
                {"kind":"resistor","a":"in","b":"out","ohms":1000.0},
                {"kind":"capacitor","a":"out","b":"gnd","farads":1e-6}
            ]}"#,
        )
        .expect("deck literal is valid JSON")
    }

    #[test]
    fn transient_payload_reports_solver_work_and_final_state() {
        let req = Request::Transient {
            deck: rc_deck(),
            dt: 1e-5,
            t_end: 5e-3,
            record_stride: 10,
        };
        let payload = execute(&req).expect("RC deck simulates");
        assert_eq!(payload.get("steps").and_then(Json::as_int), Some(500));
        let final_v = match payload.get("final_v") {
            Some(Json::Array(v)) => v.clone(),
            other => panic!("final_v missing: {other:?}"),
        };
        // After 5 time constants the capacitor node sits at ~1 V.
        let out = final_v[1].as_f64().expect("voltage is numeric");
        assert!((out - 1.0).abs() < 0.01, "v(out) = {out}");
        // Determinism: identical request, identical rendered payload.
        assert_eq!(payload.render(), execute(&req).expect("rerun").render());
    }

    #[test]
    fn scenario_payload_round_trips_through_the_renderer() {
        let req = Request::Scenario {
            fault: Fault::OpenCoil,
            preset: Preset::FastTest,
        };
        let payload = execute(&req).expect("scenario runs");
        assert_eq!(
            payload.get("fault").and_then(Json::as_str),
            Some("open_coil")
        );
        assert_eq!(payload.get("detected"), Some(&Json::Bool(true)));
        assert_eq!(payload.render(), execute(&req).expect("rerun").render());
    }

    #[test]
    fn yield_campaign_is_seeded_and_deterministic() {
        let line = r#"{"kind":"campaign","campaign":"yield","dies":16,"seed":7,"window":0.1}"#;
        let req = parse_request(&Json::parse(line).expect("valid JSON")).expect("parses");
        let a = execute(&req).expect("runs").render();
        let b = execute(&req).expect("runs").render();
        assert_eq!(a, b);
        assert!(a.contains("\"dies\":16"));
    }

    #[test]
    fn prove_payload_is_deterministic_and_proved_for_presets() {
        for preset in [Preset::FastTest, Preset::Datasheet3MHz, Preset::LowQ] {
            let req = Request::Prove { preset };
            let payload = execute(&req).expect("prover runs");
            assert_eq!(
                payload.get("preset").and_then(Json::as_str),
                Some(preset.token())
            );
            assert_eq!(
                payload.get("prove").and_then(|p| p.get("proved")).cloned(),
                Some(Json::Bool(true)),
                "{}",
                preset.token()
            );
            assert_eq!(payload.render(), execute(&req).expect("rerun").render());
        }
    }

    #[test]
    fn bad_deck_is_a_typed_error_not_a_panic() {
        let req = Request::Transient {
            deck: Json::parse(r#"{"elements":[{"kind":"warp_coil"}]}"#).expect("valid JSON"),
            dt: 1e-6,
            t_end: 1e-3,
            record_stride: 1,
        };
        let err = execute(&req).expect_err("unknown element type");
        assert!(err.contains("warp_coil"), "{err}");
    }
}
