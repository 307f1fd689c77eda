//! Schemas and tuples.
//!
//! Gamma compiled predicates to machine code over fixed-layout records; we
//! keep the same flavour: a [`Schema`] is an ordered list of fixed-width
//! fields, a tuple is a `Vec<u8>` laid out per the schema, and an [`Attr`]
//! is a resolved accessor (byte offset) for a 4-byte integer attribute —
//! the only attribute kind the paper ever joins or partitions on.

/// A field of a schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Field {
    /// 4-byte little-endian unsigned integer.
    Int(String),
    /// Fixed-width string (padded), e.g. the Wisconsin 52-byte strings.
    Str(String, usize),
}

impl Field {
    /// Field name.
    pub fn name(&self) -> &str {
        match self {
            Field::Int(n) => n,
            Field::Str(n, _) => n,
        }
    }

    /// Width in bytes.
    pub fn width(&self) -> usize {
        match self {
            Field::Int(_) => 4,
            Field::Str(_, w) => *w,
        }
    }
}

/// An ordered, fixed-layout record schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    fields: Vec<Field>,
    width: usize,
}

impl Schema {
    /// Build a schema from fields.
    pub fn new(fields: Vec<Field>) -> Self {
        let width = fields.iter().map(Field::width).sum();
        Schema { fields, width }
    }

    /// Total tuple width in bytes.
    pub fn tuple_bytes(&self) -> usize {
        self.width
    }

    /// The fields in order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Resolve an integer attribute by name.
    ///
    /// # Panics
    /// Panics if the attribute does not exist or is not an integer — schema
    /// errors are programming errors in this engine, not runtime conditions.
    pub fn int_attr(&self, name: &str) -> Attr {
        let mut off = 0;
        for f in &self.fields {
            if f.name() == name {
                match f {
                    Field::Int(_) => return Attr { offset: off },
                    Field::Str(..) => panic!("attribute {name} is not an integer"),
                }
            }
            off += f.width();
        }
        panic!("no attribute named {name}");
    }

    /// Concatenation of two schemas (the composed join output schema).
    pub fn join(&self, other: &Schema) -> Schema {
        let mut fields = Vec::with_capacity(self.fields.len() + other.fields.len());
        for f in &self.fields {
            fields.push(match f {
                Field::Int(n) => Field::Int(format!("l.{n}")),
                Field::Str(n, w) => Field::Str(format!("l.{n}"), *w),
            });
        }
        for f in &other.fields {
            fields.push(match f {
                Field::Int(n) => Field::Int(format!("r.{n}")),
                Field::Str(n, w) => Field::Str(format!("r.{n}"), *w),
            });
        }
        Schema::new(fields)
    }
}

/// A resolved 4-byte integer attribute accessor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attr {
    /// Byte offset of the attribute within a tuple.
    pub offset: usize,
}

impl Attr {
    /// Read the attribute from a tuple.
    #[inline]
    pub fn get(&self, tuple: &[u8]) -> u32 {
        u32::from_le_bytes(
            tuple[self.offset..self.offset + 4]
                .try_into()
                .expect("attribute within tuple bounds"),
        )
    }

    /// Write the attribute into a tuple under construction.
    #[inline]
    pub fn put(&self, tuple: &mut [u8], v: u32) {
        tuple[self.offset..self.offset + 4].copy_from_slice(&v.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::Int("unique1".into()),
            Field::Int("unique2".into()),
            Field::Str("stringu1".into(), 52),
            Field::Int("normal".into()),
        ])
    }

    #[test]
    fn widths_and_offsets() {
        let s = schema();
        assert_eq!(s.tuple_bytes(), 4 + 4 + 52 + 4);
        assert_eq!(s.int_attr("unique1").offset, 0);
        assert_eq!(s.int_attr("unique2").offset, 4);
        assert_eq!(s.int_attr("normal").offset, 60);
    }

    #[test]
    fn attr_roundtrip() {
        let s = schema();
        let mut t = vec![0u8; s.tuple_bytes()];
        let a = s.int_attr("normal");
        a.put(&mut t, 0xDEADBEEF);
        assert_eq!(a.get(&t), 0xDEADBEEF);
        assert_eq!(s.int_attr("unique1").get(&t), 0);
    }

    #[test]
    #[should_panic(expected = "no attribute named")]
    fn unknown_attr_panics() {
        schema().int_attr("nope");
    }

    #[test]
    #[should_panic(expected = "not an integer")]
    fn string_attr_as_int_panics() {
        schema().int_attr("stringu1");
    }

    #[test]
    fn join_schema_concatenates() {
        let s = schema();
        let j = s.join(&s);
        assert_eq!(j.tuple_bytes(), 2 * s.tuple_bytes());
        assert_eq!(j.int_attr("l.unique1").offset, 0);
        assert_eq!(j.int_attr("r.unique1").offset, s.tuple_bytes());
    }
}
