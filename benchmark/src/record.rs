//! The one-line JSON record a child process hands back to the runner.

use serde_json::Value;
use std::collections::BTreeMap;

/// What one child run (`--child … --mode e2e|staged|probes`) measured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Record {
    /// Measured numbers by metric (or intermediate) name.
    pub values: BTreeMap<String, f64>,
    /// Deterministic `qfr-obs` counters of this process.
    pub counters: BTreeMap<String, u64>,
    /// FNV-1a hash over the bit patterns of every spectrum produced.
    pub hash: String,
    /// Requests that errored or were shed (of `Workload::requests`).
    pub failed: u64,
    /// Failed correctness checks, one line each.
    pub failures: Vec<String>,
}

impl Record {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    pub fn to_json(&self) -> Value {
        let values = self.values.iter().map(|(k, v)| (k.clone(), Value::Float(*v))).collect();
        let counters =
            self.counters.iter().map(|(k, v)| (k.clone(), Value::Int(*v as i64))).collect();
        obj(vec![
            ("values", Value::Object(values)),
            ("counters", Value::Object(counters)),
            ("hash", Value::String(self.hash.clone())),
            ("failed", Value::Int(self.failed as i64)),
            ("failures", Value::Array(self.failures.iter().cloned().map(Value::String).collect())),
        ])
    }

    pub fn from_json(v: &Value) -> Option<Self> {
        let fields = |key: &str| match v.get(key) {
            Some(Value::Object(f)) => Some(f),
            _ => None,
        };
        Some(Self {
            values: fields("values")?
                .iter()
                .map(|(k, x)| Some((k.clone(), x.as_f64()?)))
                .collect::<Option<_>>()?,
            counters: fields("counters")?
                .iter()
                .map(|(k, x)| Some((k.clone(), x.as_u64()?)))
                .collect::<Option<_>>()?,
            hash: v["hash"].as_str()?.to_string(),
            failed: v["failed"].as_u64()?,
            failures: v["failures"]
                .as_array()?
                .iter()
                .map(|f| f.as_str().map(String::from))
                .collect::<Option<_>>()?,
        })
    }
}

/// A JSON object from `(key, value)` pairs, in order.
pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// FNV-1a over the bit patterns of `values`, continuing from `state`.
pub fn fnv1a(state: u64, values: &[f64]) -> u64 {
    values
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .fold(state, |h, byte| (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3))
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_round_trips_through_json_text() {
        let mut r = Record { hash: "00ff".into(), failed: 1, ..Record::default() };
        r.set("wall_s", 1.25);
        r.set("atoms", 1536.0);
        r.counters.insert("linalg.flops".into(), 4_951_046_628);
        r.failures.push("bands: no O-H stretch".into());
        let text = serde_json::to_string(&r.to_json()).unwrap();
        assert!(!text.contains('\n'));
        let back = Record::from_json(&serde_json::from_str(&text).unwrap()).unwrap();
        assert_eq!(back, r);
        assert!(Record::from_json(&serde_json::from_str("{}").unwrap()).is_none());
    }

    #[test]
    fn hash_sees_every_bit() {
        let a = fnv1a(FNV_OFFSET, &[1.0, 2.0]);
        assert_ne!(a, fnv1a(FNV_OFFSET, &[1.0, f64::from_bits(2.0f64.to_bits() + 1)]));
        assert_ne!(fnv1a(FNV_OFFSET, &[0.0]), fnv1a(FNV_OFFSET, &[-0.0]));
        assert_eq!(a, fnv1a(fnv1a(FNV_OFFSET, &[1.0]), &[2.0]));
    }
}
