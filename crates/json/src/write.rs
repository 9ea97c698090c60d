//! Incremental JSON emission: object/array builders plus the string
//! escape, shared by every `--metrics-json` path, the Chrome trace and
//! telemetry exporters, and the explore frontier report.

/// Incremental JSON object builder.
pub struct JsonObject {
    out: String,
    first: bool,
}

impl JsonObject {
    /// Starts an empty object.
    pub fn new() -> Self {
        Self {
            out: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, key: &str) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        self.out.push('"');
        escape_into(&mut self.out, key);
        self.out.push_str("\":");
    }

    /// Adds a pre-serialized value (object, array, number literal).
    pub fn raw(mut self, key: &str, value: &str) -> Self {
        self.key(key);
        self.out.push_str(value);
        self
    }

    /// Adds an unsigned integer field.
    pub fn u64(self, key: &str, value: u64) -> Self {
        let text = value.to_string();
        self.raw(key, &text)
    }

    /// Adds a float field (finite values only; non-finite becomes null).
    pub fn f64(self, key: &str, value: f64) -> Self {
        if value.is_finite() {
            let text = format!("{value:.6}");
            self.raw(key, &text)
        } else {
            self.raw(key, "null")
        }
    }

    /// Adds a boolean field.
    pub fn bool(self, key: &str, value: bool) -> Self {
        self.raw(key, if value { "true" } else { "false" })
    }

    /// Adds a string field, escaped.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.key(key);
        self.out.push('"');
        escape_into(&mut self.out, value);
        self.out.push('"');
        self
    }

    /// Closes the object.
    pub fn finish(mut self) -> String {
        self.out.push('}');
        self.out
    }
}

impl Default for JsonObject {
    fn default() -> Self {
        Self::new()
    }
}

/// Incremental JSON array builder (elements are pre-serialized values).
pub struct JsonArray {
    out: String,
    first: bool,
}

impl JsonArray {
    /// Starts an empty array.
    pub fn new() -> Self {
        Self {
            out: String::from("["),
            first: true,
        }
    }

    /// Appends a pre-serialized element.
    pub fn raw(&mut self, value: &str) -> &mut Self {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        self.out.push_str(value);
        self
    }

    /// Appends a string element, escaped.
    pub fn str(&mut self, value: &str) -> &mut Self {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        self.out.push('"');
        escape_into(&mut self.out, value);
        self.out.push('"');
        self
    }

    /// Closes the array.
    pub fn finish(&mut self) -> String {
        let mut out = std::mem::take(&mut self.out);
        out.push(']');
        out
    }
}

impl Default for JsonArray {
    fn default() -> Self {
        Self::new()
    }
}

/// Serializes a `u64` slice as a JSON array.
pub fn array_u64(values: &[u64]) -> String {
    let mut out = String::from("[");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&v.to_string());
    }
    out.push(']');
    out
}

/// Serializes an `f64` slice as a JSON array (non-finite becomes null).
pub fn array_f64(values: &[f64]) -> String {
    let mut out = String::from("[");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if v.is_finite() {
            out.push_str(&format!("{v:.6}"));
        } else {
            out.push_str("null");
        }
    }
    out.push(']');
    out
}

/// JSON-escapes a string into a fresh allocation.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// JSON-escapes `s`, appending to `out` (no surrounding quotes).
pub fn escape_into(out: &mut String, s: &str) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_builder_escapes_and_separates() {
        let out = JsonObject::new()
            .str("name", "a\"b\\c\nd")
            .u64("n", 3)
            .bool("ok", true)
            .f64("bad", f64::NAN)
            .finish();
        assert_eq!(out, r#"{"name":"a\"b\\c\nd","n":3,"ok":true,"bad":null}"#);
    }

    #[test]
    fn array_builder_separates() {
        let mut arr = JsonArray::new();
        arr.raw("1").str("x\"y").raw("{}");
        assert_eq!(arr.finish(), r#"[1,"x\"y",{}]"#);
        assert_eq!(JsonArray::new().finish(), "[]");
    }

    #[test]
    fn primitive_arrays_serialize() {
        assert_eq!(array_u64(&[]), "[]");
        assert_eq!(array_u64(&[1, 2, 3]), "[1,2,3]");
        assert_eq!(array_f64(&[0.5, f64::NAN]), "[0.500000,null]");
    }

    #[test]
    fn control_chars_escape_as_unicode() {
        assert_eq!(escape("a\u{1}b"), "a\\u0001b");
    }
}
