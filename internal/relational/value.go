// Package relational implements the in-memory relational engine substrate
// used by QUEST: a typed value system, schema catalog and row storage with
// primary/foreign key indexes.
//
// The engine is deliberately self-contained (stdlib only) and deterministic:
// QUEST treats it the way the paper treats a commercial DBMS — as the system
// under the wrapper that stores tuples, enforces keys and answers SQL.
package relational

import (
	"fmt"
	"strconv"
	"strings"
)

// Type enumerates the column data types supported by the engine.
type Type int

const (
	// TypeNull is the type of the NULL literal before coercion.
	TypeNull Type = iota
	// TypeInt is a 64-bit signed integer column.
	TypeInt
	// TypeFloat is a 64-bit IEEE float column.
	TypeFloat
	// TypeString is a variable-length text column.
	TypeString
	// TypeBool is a boolean column.
	TypeBool
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case TypeNull:
		return "NULL"
	case TypeInt:
		return "INT"
	case TypeFloat:
		return "FLOAT"
	case TypeString:
		return "TEXT"
	case TypeBool:
		return "BOOL"
	}
	return fmt.Sprintf("Type(%d)", int(t))
}

// Value is a single typed cell. The zero Value is NULL.
type Value struct {
	typ Type
	i   int64
	f   float64
	s   string
	b   bool
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// Int returns an integer value.
func Int(v int64) Value { return Value{typ: TypeInt, i: v} }

// Float returns a float value.
func Float(v float64) Value { return Value{typ: TypeFloat, f: v} }

// String_ returns a string value. The trailing underscore avoids clashing
// with the fmt.Stringer method on Value.
func String_(v string) Value { return Value{typ: TypeString, s: v} }

// Bool returns a boolean value.
func Bool(v bool) Value { return Value{typ: TypeBool, b: v} }

// Type reports the value's type; NULL values report TypeNull.
func (v Value) Type() Type { return v.typ }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.typ == TypeNull }

// AsInt returns the integer content. It is the caller's responsibility to
// check the type first; floats are truncated.
func (v Value) AsInt() int64 {
	switch v.typ {
	case TypeInt:
		return v.i
	case TypeFloat:
		return int64(v.f)
	case TypeBool:
		if v.b {
			return 1
		}
		return 0
	}
	return 0
}

// AsFloat returns the numeric content widened to float64.
func (v Value) AsFloat() float64 {
	switch v.typ {
	case TypeInt:
		return float64(v.i)
	case TypeFloat:
		return v.f
	}
	return 0
}

// AsString returns the textual content of a string value, or the rendered
// form of any other value.
func (v Value) AsString() string {
	if v.typ == TypeString {
		return v.s
	}
	return v.String()
}

// AsBool returns the boolean content.
func (v Value) AsBool() bool {
	switch v.typ {
	case TypeBool:
		return v.b
	case TypeInt:
		return v.i != 0
	}
	return false
}

// String renders the value the way the CLI prints result cells.
func (v Value) String() string {
	switch v.typ {
	case TypeNull:
		return "NULL"
	case TypeInt:
		return strconv.FormatInt(v.i, 10)
	case TypeFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case TypeString:
		return v.s
	case TypeBool:
		if v.b {
			return "true"
		}
		return "false"
	}
	return "?"
}

// SQL renders the value as a SQL literal.
func (v Value) SQL() string {
	if v.typ == TypeString {
		return "'" + strings.ReplaceAll(v.s, "'", "''") + "'"
	}
	return v.String()
}

// Key returns a canonical comparable representation usable as a map key.
// NULLs all collapse to the same key; numeric values of equal magnitude but
// different types stay distinct, matching Compare's type coercion rules only
// for exact matches (hash-join probes re-check with Equal).
func (v Value) Key() string {
	switch v.typ {
	case TypeNull:
		return "\x00"
	case TypeInt:
		return "i" + strconv.FormatInt(v.i, 10)
	case TypeFloat:
		if v.f == float64(int64(v.f)) {
			// Keep 3 and 3.0 join-compatible.
			return "i" + strconv.FormatInt(int64(v.f), 10)
		}
		return "f" + strconv.FormatFloat(v.f, 'g', -1, 64)
	case TypeString:
		return "s" + v.s
	case TypeBool:
		if v.b {
			return "b1"
		}
		return "b0"
	}
	return "?"
}

// appendKey appends the bytes of v.Key() to dst without building the
// string, so index probes can encode into a stack buffer and look up with
// m[string(buf)], which does not allocate.
func (v Value) appendKey(dst []byte) []byte {
	switch v.typ {
	case TypeNull:
		return append(dst, 0)
	case TypeInt:
		return strconv.AppendInt(append(dst, 'i'), v.i, 10)
	case TypeFloat:
		if v.f == float64(int64(v.f)) {
			return strconv.AppendInt(append(dst, 'i'), int64(v.f), 10)
		}
		return strconv.AppendFloat(append(dst, 'f'), v.f, 'g', -1, 64)
	case TypeString:
		return append(append(dst, 's'), v.s...)
	case TypeBool:
		if v.b {
			return append(dst, "b1"...)
		}
		return append(dst, "b0"...)
	}
	return append(dst, '?')
}

// Compare orders two values. NULL sorts before everything. Numeric types
// compare by magnitude; strings lexicographically; cross-kind comparisons
// order by type id so sorting is total.
func Compare(a, b Value) int {
	if a.typ == TypeNull || b.typ == TypeNull {
		switch {
		case a.typ == TypeNull && b.typ == TypeNull:
			return 0
		case a.typ == TypeNull:
			return -1
		default:
			return 1
		}
	}
	if numeric(a.typ) && numeric(b.typ) {
		af, bf := a.AsFloat(), b.AsFloat()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	}
	if a.typ != b.typ {
		if a.typ < b.typ {
			return -1
		}
		return 1
	}
	switch a.typ {
	case TypeString:
		return strings.Compare(a.s, b.s)
	case TypeBool:
		switch {
		case a.b == b.b:
			return 0
		case !a.b:
			return -1
		default:
			return 1
		}
	}
	return 0
}

// Equal reports SQL equality. NULL never equals anything, including NULL.
func Equal(a, b Value) bool {
	if a.typ == TypeNull || b.typ == TypeNull {
		return false
	}
	return Compare(a, b) == 0
}

func numeric(t Type) bool { return t == TypeInt || t == TypeFloat }

// Coerce converts v to the column type t where a lossless or standard SQL
// conversion exists, otherwise returns an error.
func Coerce(v Value, t Type) (Value, error) {
	if v.typ == TypeNull || v.typ == t {
		return v, nil
	}
	switch t {
	case TypeInt:
		switch v.typ {
		case TypeFloat:
			return Int(int64(v.f)), nil
		case TypeString:
			n, err := strconv.ParseInt(strings.TrimSpace(v.s), 10, 64)
			if err != nil {
				return Value{}, fmt.Errorf("relational: cannot coerce %q to INT", v.s)
			}
			return Int(n), nil
		case TypeBool:
			return Int(v.AsInt()), nil
		}
	case TypeFloat:
		switch v.typ {
		case TypeInt:
			return Float(float64(v.i)), nil
		case TypeString:
			f, err := strconv.ParseFloat(strings.TrimSpace(v.s), 64)
			if err != nil {
				return Value{}, fmt.Errorf("relational: cannot coerce %q to FLOAT", v.s)
			}
			return Float(f), nil
		}
	case TypeString:
		return String_(v.String()), nil
	case TypeBool:
		switch v.typ {
		case TypeInt:
			return Bool(v.i != 0), nil
		case TypeString:
			switch strings.ToLower(strings.TrimSpace(v.s)) {
			case "true", "t", "1", "yes":
				return Bool(true), nil
			case "false", "f", "0", "no":
				return Bool(false), nil
			}
		}
	}
	return Value{}, fmt.Errorf("relational: cannot coerce %s to %s", v.typ, t)
}
