//! The integer-only text exports' writer: the JSONL event stream, the
//! canonical span lines, the metric windows and the Perfetto trace write
//! their integers straight into one buffer, with no `String` per number.

/// An integer [`Text::push_int`] writes.
pub(crate) trait Integer: Copy {
    /// Whether the value is negative, and its absolute value.
    fn sign_magnitude(self) -> (bool, u64);
}

impl Integer for u64 {
    fn sign_magnitude(self) -> (bool, u64) {
        (false, self)
    }
}

impl Integer for u32 {
    fn sign_magnitude(self) -> (bool, u64) {
        (false, u64::from(self))
    }
}

impl Integer for i64 {
    fn sign_magnitude(self) -> (bool, u64) {
        (self < 0, self.unsigned_abs())
    }
}

/// Where an export writes: a `String`, or a [`Measure`] that counts the
/// bytes the same writes would append.
pub(crate) trait Text {
    /// Appends `s`.
    fn push_str(&mut self, s: &str);
    /// Appends `v` in decimal, as its `Display` renders it.
    fn push_int(&mut self, v: impl Integer);
}

impl Text for String {
    fn push_str(&mut self, s: &str) {
        String::push_str(self, s);
    }

    fn push_int(&mut self, v: impl Integer) {
        let (negative, mut v) = v.sign_magnitude();
        let mut digits = [0u8; 20];
        let mut start = digits.len();
        loop {
            start -= 1;
            digits[start] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        if negative {
            self.push('-');
        }
        for &d in &digits[start..] {
            self.push(char::from(d));
        }
    }
}

/// The length of the text an export would write, so that its buffer is
/// allocated once at the size it needs.
#[derive(Debug, Default)]
pub(crate) struct Measure(pub(crate) usize);

impl Text for Measure {
    fn push_str(&mut self, s: &str) {
        self.0 += s.len();
    }

    fn push_int(&mut self, v: impl Integer) {
        let (negative, v) = v.sign_magnitude();
        let digits = v.checked_ilog10().map_or(1, |d| d as usize + 1);
        self.0 += usize::from(negative) + digits;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Writes `v` through both writers and through `Display`.
    fn check(v: impl Integer + std::fmt::Display) {
        let (mut out, mut len) = (String::new(), Measure::default());
        out.push_int(v);
        len.push_int(v);
        assert_eq!(out, v.to_string());
        assert_eq!(len.0, out.len(), "measured length of {v}");
    }

    #[test]
    fn integers_render_as_display_does() {
        for v in [0, 1, 9, 10, 99, 100, 1 << 32, u64::MAX - 1, u64::MAX] {
            check(v);
        }
        for v in [0, -1, 1, -10, i64::MIN, i64::MIN + 1, i64::MAX] {
            check(v);
        }
        check(u32::MAX);
    }
}
