package metric

import (
	"math"
	"strconv"
	"testing"
	"testing/quick"
)

func TestTypeStringRoundTrip(t *testing.T) {
	for ty := TypeString; ty <= TypeTimestamp; ty++ {
		if got := ParseType(ty.String()); got != ty {
			t.Errorf("ParseType(%q) = %v, want %v", ty.String(), got, ty)
		}
	}
}

func TestParseTypeUnknown(t *testing.T) {
	if got := ParseType("quaternion"); got != TypeString {
		t.Errorf("unknown type parsed to %v, want TypeString", got)
	}
}

func TestTypeNumeric(t *testing.T) {
	cases := map[Type]bool{
		TypeString:    false,
		TypeTimestamp: false,
		TypeInt8:      true,
		TypeUint8:     true,
		TypeInt16:     true,
		TypeUint16:    true,
		TypeInt32:     true,
		TypeUint32:    true,
		TypeFloat:     true,
		TypeDouble:    true,
	}
	for ty, want := range cases {
		if got := ty.Numeric(); got != want {
			t.Errorf("%v.Numeric() = %v, want %v", ty, got, want)
		}
	}
}

func TestSlopeStringRoundTrip(t *testing.T) {
	for s := SlopeZero; s <= SlopeUnspecified; s++ {
		if got := ParseSlope(s.String()); got != s {
			t.Errorf("ParseSlope(%q) = %v, want %v", s.String(), got, s)
		}
	}
	if got := ParseSlope("sideways"); got != SlopeUnspecified {
		t.Errorf("unknown slope parsed to %v", got)
	}
}

func TestValueConstructors(t *testing.T) {
	v := NewFloat(0.894)
	if f, ok := v.Float64(); !ok || f != 0.894 {
		t.Errorf("NewFloat: %v %v", f, ok)
	}
	if v.Text() != "0.89" {
		t.Errorf("float Text = %q, want 0.89", v.Text())
	}
	if v.Type() != TypeFloat {
		t.Errorf("float Type = %v", v.Type())
	}

	v = NewInt(-3)
	if v.Text() != "-3" || v.Type() != TypeInt32 {
		t.Errorf("NewInt: %q %v", v.Text(), v.Type())
	}

	v = NewUint(12)
	if v.Text() != "12" || v.Type() != TypeUint32 {
		t.Errorf("NewUint: %q %v", v.Text(), v.Type())
	}

	v = NewString("Linux")
	if v.Text() != "Linux" {
		t.Errorf("NewString Text = %q", v.Text())
	}
	if _, ok := v.Float64(); ok {
		t.Error("string value reported as numeric")
	}

	v = NewTimestamp(1057000000)
	if v.Text() != "1057000000" || v.Type() != TypeTimestamp {
		t.Errorf("NewTimestamp: %q %v", v.Text(), v.Type())
	}
}

func TestNewTypedNumericParsing(t *testing.T) {
	v := NewTyped(TypeFloat, "2.50")
	if f, ok := v.Float64(); !ok || f != 2.5 {
		t.Errorf("parsed %v %v", f, ok)
	}
	// Malformed numeric text degrades to zero, not an error: one bad
	// peer value must not take down the monitor.
	v = NewTyped(TypeUint32, "not-a-number")
	if f, ok := v.Float64(); !ok || f != 0 {
		t.Errorf("malformed numeric: %v %v", f, ok)
	}
	v = NewTyped(TypeString, "anything at all")
	if v.Text() != "anything at all" {
		t.Errorf("string passthrough: %q", v.Text())
	}
}

// TestParseTypedMatchesNewTyped: the parse-buffer form builds the same
// value as NewTyped for every type, copies non-numeric text out of the
// buffer, and costs a numeric value no allocation.
func TestParseTypedMatchesNewTyped(t *testing.T) {
	for typ := TypeString; typ <= TypeTimestamp; typ++ {
		for _, text := range []string{"", "0", "2.50", "-17", "1e3", "not-a-number", "Linux <x>"} {
			if got, want := ParseTyped(typ, []byte(text)), NewTyped(typ, text); got != want {
				t.Errorf("ParseTyped(%v, %q) = %#v, NewTyped gives %#v", typ, text, got, want)
			}
		}
	}
	buf := []byte("linux")
	v := ParseTyped(TypeString, buf)
	buf[0] = 'L'
	if v.Text() != "linux" {
		t.Errorf("string value aliases the parse buffer: %q", v.Text())
	}
	num := []byte("12345.678")
	if allocs := testing.AllocsPerRun(100, func() { v = ParseTyped(TypeDouble, num) }); allocs != 0 {
		t.Errorf("numeric ParseTyped allocates %.0f times", allocs)
	}
}

func TestHeartbeat(t *testing.T) {
	hb := Heartbeat(12345, 20)
	if hb.Name != HeartbeatName {
		t.Errorf("name = %q", hb.Name)
	}
	if hb.Val.Text() != "12345" {
		t.Errorf("value = %q", hb.Val.Text())
	}
	if hb.TMAX != 20 {
		t.Errorf("tmax = %d", hb.TMAX)
	}
}

func TestStaleAndExpired(t *testing.T) {
	m := Metric{TMAX: 20, DMAX: 86400}
	m.TN = 0
	if m.Stale() || m.Expired() {
		t.Error("fresh metric reported stale/expired")
	}
	m.TN = 81 // > 4*TMAX
	if !m.Stale() {
		t.Error("TN=81 TMAX=20 should be stale")
	}
	if m.Expired() {
		t.Error("TN=81 should not be expired with DMAX=86400")
	}
	m.TN = 90000
	if !m.Expired() {
		t.Error("TN>DMAX should be expired")
	}
	// DMAX=0 means never expire.
	m = Metric{TMAX: 20, DMAX: 0, TN: 1 << 30}
	if m.Expired() {
		t.Error("DMAX=0 must never expire")
	}
	// TMAX=0 means never stale (e.g. constant metrics).
	m = Metric{TMAX: 0, TN: 1 << 30}
	if m.Stale() {
		t.Error("TMAX=0 must never go stale")
	}
}

func TestStandardTable(t *testing.T) {
	if len(Standard) < 30 {
		t.Fatalf("standard table has %d metrics, want ~30+ (paper: 'about 30')", len(Standard))
	}
	seen := map[string]bool{}
	for _, d := range Standard {
		if d.Name == "" {
			t.Error("empty metric name in table")
		}
		if seen[d.Name] {
			t.Errorf("duplicate metric %q", d.Name)
		}
		seen[d.Name] = true
		if d.TMAX == 0 {
			t.Errorf("%s: zero TMAX", d.Name)
		}
		if d.CollectEvery == 0 {
			t.Errorf("%s: zero CollectEvery", d.Name)
		}
		if d.CollectEvery > d.TMAX {
			t.Errorf("%s: collects every %ds but TMAX is %ds", d.Name, d.CollectEvery, d.TMAX)
		}
	}
	for _, name := range []string{"load_one", "cpu_num", "mem_total", "bytes_in", "os_name"} {
		if !seen[name] {
			t.Errorf("standard table missing %q", name)
		}
	}
}

func TestLookup(t *testing.T) {
	d := Lookup("load_one")
	if d == nil {
		t.Fatal("load_one not found")
	}
	if d.Type != TypeFloat {
		t.Errorf("load_one type = %v", d.Type)
	}
	if Lookup("no_such_metric") != nil {
		t.Error("Lookup invented a metric")
	}
}

func TestNumericStandard(t *testing.T) {
	names := NumericStandard()
	for _, n := range names {
		d := Lookup(n)
		if d == nil || !d.Type.Numeric() {
			t.Errorf("NumericStandard returned non-numeric %q", n)
		}
	}
	// os_name is a string metric and must be absent.
	for _, n := range names {
		if n == "os_name" {
			t.Error("os_name in NumericStandard")
		}
	}
	if len(names) >= len(Standard) {
		t.Error("every metric numeric? string metrics missing from table")
	}
}

func TestAnnouncementRoundTrip(t *testing.T) {
	a := Announcement{
		Host: "compute-0-0",
		IP:   "10.1.0.5",
		Metric: Metric{
			Name:  "load_one",
			Val:   NewFloat(0.89),
			Units: "",
			Slope: SlopeBoth,
			TMAX:  70,
			DMAX:  0,
		},
	}
	pkt := a.Encode()
	got, err := DecodeAnnouncement(pkt)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Host != a.Host || got.IP != a.IP {
		t.Errorf("host/ip = %q/%q", got.Host, got.IP)
	}
	if got.Metric.Name != "load_one" {
		t.Errorf("name = %q", got.Metric.Name)
	}
	if f, ok := got.Metric.Val.Float64(); !ok || f != 0.89 {
		t.Errorf("value = %v %v", f, ok)
	}
	if got.Metric.Slope != SlopeBoth || got.Metric.TMAX != 70 {
		t.Errorf("slope/tmax = %v/%d", got.Metric.Slope, got.Metric.TMAX)
	}
	if got.Metric.Source != "gmond" {
		t.Errorf("source = %q", got.Metric.Source)
	}
}

func TestAnnouncementRejectsGarbage(t *testing.T) {
	if _, err := DecodeAnnouncement([]byte("hello world, not xdr")); err == nil {
		t.Error("garbage decoded without error")
	}
	if _, err := DecodeAnnouncement(nil); err == nil {
		t.Error("empty packet decoded without error")
	}
	// Valid magic, truncated body.
	a := Announcement{Host: "h", Metric: Metric{Name: "m", Val: NewInt(1)}}
	pkt := a.Encode()
	if _, err := DecodeAnnouncement(pkt[:12]); err == nil {
		t.Error("truncated packet decoded without error")
	}
}

func TestAnnouncementWrongVersion(t *testing.T) {
	a := Announcement{Host: "h", Metric: Metric{Name: "m", Val: NewInt(1)}}
	pkt := a.Encode()
	pkt[7] = 99 // corrupt the version word
	if _, err := DecodeAnnouncement(pkt); err == nil {
		t.Error("wrong version accepted")
	}
}

// Property: announcements round-trip for arbitrary host/name strings and
// integer values.
func TestQuickAnnouncementRoundTrip(t *testing.T) {
	f := func(host, name string, val int32, tmax, dmax uint32) bool {
		a := Announcement{
			Host: host,
			Metric: Metric{
				Name: name,
				Val:  NewInt(int64(val)),
				TMAX: tmax,
				DMAX: dmax,
			},
		}
		got, err := DecodeAnnouncement(a.Encode())
		if err != nil {
			return false
		}
		gv, ok := got.Metric.Val.Float64()
		return got.Host == host && got.Metric.Name == name && ok &&
			int32(gv) == val && got.Metric.TMAX == tmax && got.Metric.DMAX == dmax
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Value.Text for numeric types always re-parses to the same
// number (within float formatting precision).
func TestQuickValueTextParses(t *testing.T) {
	f := func(v int64) bool {
		val := NewInt(v % (1 << 52)) // stay in float64-exact range
		parsed, err := strconv.ParseFloat(val.Text(), 64)
		if err != nil {
			return false
		}
		f0, _ := val.Float64()
		return parsed == math.Trunc(f0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkAnnouncementEncode(b *testing.B) {
	a := Announcement{
		Host:   "compute-0-0",
		IP:     "10.1.0.5",
		Metric: Metric{Name: "load_one", Val: NewFloat(0.89), Slope: SlopeBoth, TMAX: 70},
	}
	buf := make([]byte, 0, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = a.AppendEncode(buf[:0])
	}
}

func BenchmarkAnnouncementDecode(b *testing.B) {
	a := Announcement{
		Host:   "compute-0-0",
		Metric: Metric{Name: "load_one", Val: NewFloat(0.89), TMAX: 70},
	}
	pkt := a.Encode()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeAnnouncement(pkt); err != nil {
			b.Fatal(err)
		}
	}
}
