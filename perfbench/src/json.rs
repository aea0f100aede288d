//! A minimal JSON object writer (the benchmark has no serde).

/// An ordered JSON object under construction.
#[derive(Debug, Clone, Default)]
pub struct Obj {
    fields: Vec<String>,
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number with every digit Rust keeps (shortest round-trip
/// form); `null` for NaN and infinities.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

impl Obj {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    fn raw(&mut self, key: &str, value: String) {
        self.fields.push(format!("{}:{value}", quote(key)));
    }

    /// Adds a number.
    pub fn num(&mut self, key: &str, v: f64) {
        self.raw(key, number(v));
    }

    /// Adds a whole number.
    pub fn int(&mut self, key: &str, v: u64) {
        self.raw(key, v.to_string());
    }

    /// Adds a boolean.
    pub fn bool(&mut self, key: &str, v: bool) {
        self.raw(key, v.to_string());
    }

    /// Adds a string.
    pub fn str(&mut self, key: &str, v: &str) {
        self.raw(key, quote(v));
    }

    /// Adds an array of numbers.
    pub fn nums(&mut self, key: &str, v: &[f64]) {
        let items: Vec<String> = v.iter().map(|&x| number(x)).collect();
        self.raw(key, format!("[{}]", items.join(",")));
    }

    /// Adds an array of strings.
    pub fn strs(&mut self, key: &str, v: &[String]) {
        let items: Vec<String> = v.iter().map(|x| quote(x)).collect();
        self.raw(key, format!("[{}]", items.join(",")));
    }

    /// Adds a nested object.
    pub fn obj(&mut self, key: &str, v: Obj) {
        self.raw(key, v.finish());
    }

    /// Adds a pre-rendered JSON value.
    pub fn value(&mut self, key: &str, json: String) {
        self.raw(key, json);
    }

    /// The object as one line of JSON.
    pub fn finish(&self) -> String {
        format!("{{{}}}", self.fields.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_nested_objects() {
        let mut inner = Obj::new();
        inner.num("value", 1.25);
        inner.str("unit", "ms");
        let mut o = Obj::new();
        o.bool("correct", true);
        o.int("attempted", 3);
        o.obj("m", inner);
        o.num("nan", f64::NAN);
        assert_eq!(
            o.finish(),
            r#"{"correct":true,"attempted":3,"m":{"value":1.25,"unit":"ms"},"nan":null}"#
        );
    }

    #[test]
    fn numbers_keep_their_digits() {
        let mut o = Obj::new();
        o.num("x", 0.1 + 0.2);
        assert_eq!(o.finish(), r#"{"x":0.30000000000000004}"#);
        let mut o = Obj::new();
        o.str("s", "a\"b\\c\n");
        assert_eq!(o.finish(), r#"{"s":"a\"b\\c\n"}"#);
    }
}
