//! Typed access to `perfbench/spec.json`: the workload sizes, the pinned
//! answers, the residual bound and the held-out seed. The file is built
//! into the harness, so a run cannot pick up a different one.

use raceline_warehouse::json;
use serde::Value;

/// One object of the spec, with its path for error messages.
#[derive(Clone, Copy)]
pub struct Params<'a> {
    v: &'a Value,
    path: &'a str,
}

impl<'a> Params<'a> {
    pub fn new(v: &'a Value, path: &'a str) -> Self {
        Params { v, path }
    }

    fn get(&self, key: &str) -> Result<&'a Value, String> {
        json::get(self.v, key).ok_or_else(|| format!("spec {}: missing {key}", self.path))
    }

    pub fn f64(&self, key: &str) -> Result<f64, String> {
        match self.get(key)? {
            Value::Float(x) => Ok(*x),
            Value::UInt(n) => Ok(*n as f64),
            Value::Int(n) => Ok(*n as f64),
            _ => Err(format!("spec {}: {key} is not a number", self.path)),
        }
    }

    pub fn u64(&self, key: &str) -> Result<u64, String> {
        json::get_u64(self.v, key)
            .ok_or_else(|| format!("spec {}: {key} is not a whole number", self.path))
    }

    pub fn usize(&self, key: &str) -> Result<usize, String> {
        Ok(self.u64(key)? as usize)
    }

    /// An object of whole numbers, in file order.
    pub fn counts(&self, key: &str) -> Result<Vec<(&'a str, u64)>, String> {
        match self.get(key)? {
            Value::Object(fields) => fields
                .iter()
                .map(|(k, v)| match v {
                    Value::UInt(n) => Ok((k.as_str(), *n)),
                    _ => Err(format!("spec {}: {key}.{k} is not a whole number", self.path)),
                })
                .collect(),
            _ => Err(format!("spec {}: {key} is not an object", self.path)),
        }
    }

    /// An array of strings.
    pub fn strs(&self, key: &str) -> Result<Vec<&'a str>, String> {
        match self.get(key)? {
            Value::Array(items) => items
                .iter()
                .map(|i| match i {
                    Value::Str(s) => Ok(s.as_str()),
                    _ => Err(format!("spec {}: {key} holds a non-string", self.path)),
                })
                .collect(),
            _ => Err(format!("spec {}: {key} is not an array", self.path)),
        }
    }
}

/// Parse the spec built into the harness.
pub fn load() -> Result<Value, String> {
    json::parse(include_str!("../spec.json")).map_err(|e| format!("spec.json: {e}"))
}
