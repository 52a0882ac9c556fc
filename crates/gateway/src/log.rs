//! The session log: a replayable record of everything the gateway let in.
//!
//! Live serving is wall-clock-driven, so the *run* is not reproducible —
//! but the *workload* is: every accepted submission is recorded with the
//! final arrival stamp the sim chose ([`deepserve::IngressRecord`]), and
//! [`replay`] feeds those records through a fresh deterministic cluster.
//! The contract (DESIGN.md "Serving façade"): the replayed
//! [`RunReport`]'s JSON is byte-identical to the live run's, with
//! fast-forward on or off.

use deepserve::{ClusterSim, IngressRecord, RunReport};
use serde::{Number, Serialize, Value};

/// Current log format version.
pub const LOG_VERSION: u64 = 1;

/// Serializes a session log: `{"version":1,"ingress":[...]}`.
pub fn to_json(records: &[IngressRecord]) -> String {
    Value::Object(vec![
        (
            "version".to_string(),
            Value::Number(Number::U64(LOG_VERSION)),
        ),
        (
            "ingress".to_string(),
            Value::Array(records.iter().map(Serialize::to_value).collect()),
        ),
    ])
    .to_json_pretty()
}

/// Parses a session log produced by [`to_json`]. Errors name what is
/// wrong; a hand-edited log must fail loudly, not replay something else.
pub fn from_json(text: &str) -> Result<Vec<IngressRecord>, String> {
    let v = Value::parse(text).map_err(|e| format!("session log is not JSON: {e:?}"))?;
    let version = v
        .get("version")
        .and_then(Value::as_u64)
        .ok_or_else(|| "session log lacks a numeric \"version\"".to_string())?;
    if version != LOG_VERSION {
        return Err(format!(
            "session log version {version} is not supported (expected {LOG_VERSION})"
        ));
    }
    v.get("ingress")
        .and_then(Value::as_array)
        .ok_or_else(|| "session log lacks an \"ingress\" array".to_string())?
        .iter()
        .enumerate()
        .map(|(i, r)| IngressRecord::from_json(r).map_err(|e| format!("ingress[{i}]: {e}")))
        .collect()
}

/// Replays a recorded session through a fresh deterministic cluster built
/// by `build` (which must construct the same topology the live server
/// used) and returns the final report. No wall clock anywhere: the log's
/// arrival stamps drive the run.
pub fn replay(records: &[IngressRecord], build: impl FnOnce() -> ClusterSim) -> RunReport {
    let mut sim = build();
    sim.inject(records.iter().map(IngressRecord::to_request).collect());
    sim.run_to_completion()
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowserve::TokenId;

    fn record(id: u64, at: u64) -> IngressRecord {
        IngressRecord {
            id,
            arrival_ns: at,
            prompt: vec![TokenId(7), TokenId(9)],
            target_output: 4,
            cache_id: if id.is_multiple_of(2) { Some(id) } else { None },
            model: if id.is_multiple_of(3) {
                Some(id as u32)
            } else {
                None
            },
        }
    }

    #[test]
    fn log_round_trips_through_json() {
        let records = vec![record(1, 10), record(2, 20), record(3, 4_000_000_000)];
        let text = to_json(&records);
        let back = from_json(&text).expect("round trip");
        assert_eq!(back, records);
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let text = "{\"version\": 99, \"ingress\": []}";
        let err = from_json(text).expect_err("must reject");
        assert!(err.contains("version 99"), "{err}");
    }

    #[test]
    fn garbage_is_rejected_with_context() {
        assert!(from_json("not json").is_err());
        assert!(from_json("{}").is_err());
        let bad_record = "{\"version\":1,\"ingress\":[{\"id\":1}]}";
        let err = from_json(bad_record).expect_err("must reject");
        assert!(err.contains("ingress[0]"), "{err}");
    }
}
