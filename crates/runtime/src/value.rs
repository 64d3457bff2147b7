//! Runtime values and the semantic kernels for operators and
//! intrinsics.

use sjava_syntax::ast::{BinOp, Type};
use std::fmt;

/// Identifier of a heap object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ObjId(pub usize);

/// A runtime value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// 64-bit integer (covers the dialect's `int`).
    Int(i64),
    /// Double-precision float (covers `float`).
    Float(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
    /// Reference to a heap object or array.
    Ref(ObjId),
    /// The null reference.
    Null,
}

impl Value {
    /// The default (zero) value for a declared type — also what
    /// crash-avoidance mode substitutes for failed reads (§4.4).
    pub fn default_for(ty: &Type) -> Value {
        match ty {
            Type::Int => Value::Int(0),
            Type::Float => Value::Float(0.0),
            Type::Boolean => Value::Bool(false),
            Type::Str => Value::Str(String::new()),
            Type::Void | Type::Class(_) | Type::Array(_) => Value::Null,
        }
    }

    /// Truthiness for conditions; non-bool values are errors handled by
    /// the caller.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Numeric view as f64 (ints widen).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Bitwise identity: `==`, except that floats compare by their bits,
    /// so `-0.0` and `0.0` differ and a NaN equals only the same NaN.
    pub(crate) fn same_bits(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
            _ => self == other,
        }
    }

    /// Integer view.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Float(f) => Some(*f as i64),
            _ => None,
        }
    }
}

/// A recoverable (§4.4) evaluation failure: the message that goes to
/// the crash-avoidance log and the default value that stands in for
/// the result when errors are ignored.
#[derive(Debug, Clone, PartialEq)]
pub struct SoftFail {
    /// Log message.
    pub msg: String,
    /// Crash-avoidance substitute value.
    pub default: Value,
}

impl SoftFail {
    fn new(msg: impl Into<String>, default: Value) -> Self {
        SoftFail {
            msg: msg.into(),
            default,
        }
    }
}

/// Applies a binary operator to two values: the single source of truth
/// for operator semantics.
pub(crate) fn binop_values(op: BinOp, l: &Value, r: &Value) -> Result<Value, SoftFail> {
    use BinOp::*;
    // String concatenation.
    if op == Add {
        if let (Value::Str(a), b) = (l, r) {
            return Ok(Value::Str(format!("{a}{b}")));
        }
        if let (a, Value::Str(b)) = (l, r) {
            return Ok(Value::Str(format!("{a}{b}")));
        }
    }
    // Equality works across all values.
    if op == Eq {
        return Ok(Value::Bool(l == r));
    }
    if op == Ne {
        return Ok(Value::Bool(l != r));
    }
    let float_mode = matches!(l, Value::Float(_)) || matches!(r, Value::Float(_));
    if float_mode {
        let (Some(a), Some(b)) = (l.as_f64(), r.as_f64()) else {
            return Err(SoftFail::new(
                "arithmetic on non-numbers",
                Value::Float(0.0),
            ));
        };
        Ok(match op {
            Add => Value::Float(a + b),
            Sub => Value::Float(a - b),
            Mul => Value::Float(a * b),
            Div => {
                if b == 0.0 {
                    return Err(SoftFail::new("float division by zero", Value::Float(0.0)));
                }
                Value::Float(a / b)
            }
            Rem => {
                if b == 0.0 {
                    return Err(SoftFail::new("float modulo by zero", Value::Float(0.0)));
                }
                Value::Float(a % b)
            }
            Lt => Value::Bool(a < b),
            Le => Value::Bool(a <= b),
            Gt => Value::Bool(a > b),
            Ge => Value::Bool(a >= b),
            _ => return Err(SoftFail::new("bitwise op on floats", Value::Float(0.0))),
        })
    } else {
        let (Some(a), Some(b)) = (l.as_i64(), r.as_i64()) else {
            return Err(SoftFail::new("arithmetic on non-numbers", Value::Int(0)));
        };
        Ok(match op {
            Add => Value::Int(a.wrapping_add(b)),
            Sub => Value::Int(a.wrapping_sub(b)),
            Mul => Value::Int(a.wrapping_mul(b)),
            Div => {
                if b == 0 {
                    return Err(SoftFail::new("division by zero", Value::Int(0)));
                }
                Value::Int(a.wrapping_div(b))
            }
            Rem => {
                if b == 0 {
                    return Err(SoftFail::new("modulo by zero", Value::Int(0)));
                }
                Value::Int(a.wrapping_rem(b))
            }
            Lt => Value::Bool(a < b),
            Le => Value::Bool(a <= b),
            Gt => Value::Bool(a > b),
            Ge => Value::Bool(a >= b),
            BitAnd => Value::Int(a & b),
            BitOr => Value::Int(a | b),
            BitXor => Value::Int(a ^ b),
            Shl => Value::Int(a.wrapping_shl((b & 63) as u32)),
            Shr => Value::Int(a.wrapping_shr((b & 63) as u32)),
            And | Or | Eq | Ne => unreachable!("handled above"),
        })
    }
}

/// Evaluates a `Math.*` intrinsic over already-evaluated arguments.
pub(crate) fn math_values(name: &str, vals: &[Value]) -> Result<Value, SoftFail> {
    let f = |v: &Value| v.as_f64().unwrap_or(0.0);
    Ok(match (name, vals) {
        ("abs", [v]) => match v {
            Value::Int(i) => Value::Int(i.wrapping_abs()),
            other => Value::Float(f(other).abs()),
        },
        ("sqrt", [v]) => Value::Float(f(v).max(0.0).sqrt()),
        ("sin", [v]) => Value::Float(f(v).sin()),
        ("cos", [v]) => Value::Float(f(v).cos()),
        ("tanh", [v]) => Value::Float(f(v).tanh()),
        ("floor", [v]) => Value::Float(f(v).floor()),
        ("pow", [a, b]) => Value::Float(f(a).powf(f(b))),
        ("max", [a, b]) => match (a, b) {
            (Value::Int(x), Value::Int(y)) => Value::Int(*x.max(y)),
            _ => Value::Float(f(a).max(f(b))),
        },
        ("min", [a, b]) => match (a, b) {
            (Value::Int(x), Value::Int(y)) => Value::Int(*x.min(y)),
            _ => Value::Float(f(a).min(f(b))),
        },
        _ => {
            return Err(SoftFail::new(
                format!("unknown Math intrinsic `{name}`"),
                Value::Float(0.0),
            ))
        }
    })
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Ref(o) => write!(f, "@{}", o.0),
            Value::Null => write!(f, "null"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_values_match_types() {
        assert_eq!(Value::default_for(&Type::Int), Value::Int(0));
        assert_eq!(Value::default_for(&Type::Boolean), Value::Bool(false));
        assert_eq!(Value::default_for(&Type::Class("X".into())), Value::Null);
    }
}
