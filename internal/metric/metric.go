// Package metric defines the Ganglia metric model shared by every layer
// of the monitoring stack.
//
// A metric is a typed, named measurement originating at a single host:
// "load_one = 0.89 (float)". Gmond multicasts metrics inside a cluster,
// gmetad aggregates them across clusters, and the XML language carries
// them over the wide area. The wide-area system deliberately concerns
// itself only with a metric's type and context — which host, and in
// which cluster it originated (paper §1) — so this package carries no
// collection logic; see package oscollect for that.
//
// Every metric also carries the soft-state lifetimes the paper's
// leaderless gmon protocol depends on: TN (seconds since the value was
// last updated), TMAX (the expected interval between updates, used to
// declare a source stale) and DMAX (the interval after which a silent
// metric is deleted outright).
package metric

import (
	"fmt"
	"strconv"
)

// Type enumerates the value types of the Ganglia data model, matching
// the TYPE attribute of the METRIC tag in the XML language.
type Type uint8

// The Ganglia metric types. All numeric types participate in additive
// summaries; String and Timestamp metrics are visible only in
// full-resolution cluster views (paper §2.2: "only numeric metrics can
// be reliably summarized").
const (
	TypeString Type = iota
	TypeInt8
	TypeUint8
	TypeInt16
	TypeUint16
	TypeInt32
	TypeUint32
	TypeFloat
	TypeDouble
	TypeTimestamp
)

var typeNames = [...]string{
	TypeString:    "string",
	TypeInt8:      "int8",
	TypeUint8:     "uint8",
	TypeInt16:     "int16",
	TypeUint16:    "uint16",
	TypeInt32:     "int32",
	TypeUint32:    "uint32",
	TypeFloat:     "float",
	TypeDouble:    "double",
	TypeTimestamp: "timestamp",
}

// String returns the XML TYPE attribute spelling of t.
func (t Type) String() string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// ParseType maps a TYPE attribute back to a Type. Unknown spellings
// return TypeString, the least-capable type, so that a report from a
// newer peer still parses.
func ParseType(s string) Type {
	for i, n := range typeNames {
		if n == s {
			return Type(i)
		}
	}
	return TypeString
}

// Numeric reports whether values of this type participate in additive
// summaries.
func (t Type) Numeric() bool {
	switch t {
	case TypeString, TypeTimestamp:
		return false
	default:
		return true
	}
}

// Slope describes how a metric's value changes over time, matching the
// SLOPE attribute. Archiving uses it to pick a consolidation function
// (a "zero"-slope metric such as cpu_num rarely changes; a "positive"
// metric such as bytes_in is a monotonic counter).
type Slope uint8

// Slope values as defined by the Ganglia DTD.
const (
	SlopeZero Slope = iota
	SlopePositive
	SlopeNegative
	SlopeBoth
	SlopeUnspecified
)

var slopeNames = [...]string{
	SlopeZero:        "zero",
	SlopePositive:    "positive",
	SlopeNegative:    "negative",
	SlopeBoth:        "both",
	SlopeUnspecified: "unspecified",
}

// String returns the XML SLOPE attribute spelling of s.
func (s Slope) String() string {
	if int(s) < len(slopeNames) {
		return slopeNames[s]
	}
	return fmt.Sprintf("slope(%d)", uint8(s))
}

// ParseSlope maps a SLOPE attribute back to a Slope; unknown spellings
// return SlopeUnspecified.
func ParseSlope(v string) Slope {
	for i, n := range slopeNames {
		if n == v {
			return Slope(i)
		}
	}
	return SlopeUnspecified
}

// Value is a typed metric value. The zero Value is an empty string.
//
// Ganglia transmits every value as formatted text (the VAL attribute)
// tagged with its type; Value keeps both the numeric form — needed for
// summaries and archives — and produces the canonical text form on
// demand.
type Value struct {
	typ Type
	num float64 // valid when typ.Numeric()
	str string  // valid when !typ.Numeric()
}

// NewFloat returns a float-typed Value (single precision on the wire).
func NewFloat(v float64) Value { return Value{typ: TypeFloat, num: v} }

// NewDouble returns a double-typed Value.
func NewDouble(v float64) Value { return Value{typ: TypeDouble, num: v} }

// NewInt returns an int32-typed Value.
func NewInt(v int64) Value { return Value{typ: TypeInt32, num: float64(v)} }

// NewUint returns a uint32-typed Value.
func NewUint(v uint64) Value { return Value{typ: TypeUint32, num: float64(v)} }

// NewString returns a string-typed Value.
func NewString(v string) Value { return Value{typ: TypeString, str: v} }

// NewTimestamp returns a timestamp-typed Value holding Unix seconds.
func NewTimestamp(sec int64) Value {
	return Value{typ: TypeTimestamp, str: strconv.FormatInt(sec, 10)}
}

// NewTyped builds a Value of an explicit type from its text form, as
// found in a METRIC tag. Numeric text that fails to parse yields a
// zero-valued numeric Value rather than an error: a wide-area monitor
// must keep running when one peer emits one malformed value.
func NewTyped(t Type, text string) Value {
	if !t.Numeric() {
		return Value{typ: t, str: text}
	}
	f, err := strconv.ParseFloat(text, 64)
	if err != nil {
		f = 0
	}
	return Value{typ: t, num: f}
}

// ParseTyped is NewTyped for text that still sits in a parse buffer:
// only a non-numeric value copies it out, so the common numeric metric
// costs the parser no allocation.
func ParseTyped(t Type, text []byte) Value {
	if !t.Numeric() {
		return Value{typ: t, str: string(text)}
	}
	f, err := strconv.ParseFloat(string(text), 64)
	if err != nil {
		f = 0
	}
	return Value{typ: t, num: f}
}

// Type returns the value's type.
func (v Value) Type() Type { return v.typ }

// Float64 returns the numeric form of the value. ok is false for
// non-numeric types.
func (v Value) Float64() (f float64, ok bool) {
	if !v.typ.Numeric() {
		return 0, false
	}
	return v.num, true
}

// Text returns the canonical VAL attribute form of the value.
func (v Value) Text() string {
	if !v.typ.Numeric() {
		return v.str
	}
	switch v.typ {
	case TypeFloat, TypeDouble:
		return strconv.FormatFloat(v.num, 'f', 2, 64)
	default:
		return strconv.FormatInt(int64(v.num), 10)
	}
}

// String implements fmt.Stringer; identical to Text.
func (v Value) String() string { return v.Text() }

// Metric is one measurement at one host, together with its soft-state
// lifetimes. It maps one-to-one onto a METRIC tag in the XML language
// and onto one gmond announce packet on the wire.
type Metric struct {
	Name  string
	Val   Value
	Units string
	Slope Slope

	// TN is the age of the value in seconds: how long ago the
	// originating gmond last updated it.
	TN uint32
	// TMAX is the maximum expected interval between updates. A metric
	// with TN well beyond TMAX is stale; the host heartbeat exceeding
	// its TMAX marks the host down.
	TMAX uint32
	// DMAX is the lifetime in seconds after which a silent metric is
	// deleted from cluster state. Zero means never delete.
	DMAX uint32

	// Source records which subsystem produced the metric (e.g.
	// "gmond", "gmetad"); informational only.
	Source string
}

// HeartbeatName is the reserved metric announced by every gmond to
// signal liveness. Its value is the daemon's start time in Unix
// seconds, so a restart is detectable as a value change.
const HeartbeatName = "heartbeat"

// Heartbeat builds the reserved liveness metric.
func Heartbeat(startTime int64, tmax uint32) Metric {
	return Metric{
		Name:   HeartbeatName,
		Val:    NewUint(uint64(startTime)),
		Units:  "",
		Slope:  SlopeUnspecified,
		TMAX:   tmax,
		Source: "gmond",
	}
}

// Stale reports whether the metric has missed enough update intervals
// to be considered dead. The factor of four mirrors gmond's soft-state
// convention: one lost multicast packet must not flap a host down.
func (m *Metric) Stale() bool {
	return m.TMAX > 0 && m.TN > 4*m.TMAX
}

// Expired reports whether the metric has been silent beyond DMAX and
// should be purged from cluster state entirely.
func (m *Metric) Expired() bool {
	return m.DMAX > 0 && m.TN > m.DMAX
}
