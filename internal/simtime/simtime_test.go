package simtime

import (
	"flag"
	"io"
	"math"
	"testing"
	"testing/quick"
)

func TestUnitsAreConsistent(t *testing.T) {
	if Microsecond != 1000*Nanosecond {
		t.Errorf("Microsecond = %d", Microsecond)
	}
	if Millisecond != 1000*Microsecond {
		t.Errorf("Millisecond = %d", Millisecond)
	}
	if Second != 1e9 {
		t.Errorf("Second = %d, want 1e9", Second)
	}
	if Minute != 60*Second || Hour != 60*Minute || Day != 24*Hour {
		t.Error("minute/hour/day inconsistent")
	}
	if Year != 8766*Hour {
		t.Errorf("Year = %d, want Julian year", Year)
	}
}

func TestAddSub(t *testing.T) {
	var tm Time = 100
	if got := tm.Add(50); got != 150 {
		t.Errorf("Add = %d", got)
	}
	if got := tm.Add(-200); got != -100 {
		t.Errorf("Add negative = %d", got)
	}
	if got := Time(500).Sub(200); got != 300 {
		t.Errorf("Sub = %d", got)
	}
}

func TestAddSaturatesAtInfinity(t *testing.T) {
	tm := Infinity - 10
	if got := tm.Add(100); got != Infinity {
		t.Errorf("Add overflow = %d, want Infinity", got)
	}
	if got := Infinity.Add(1); got != Infinity {
		t.Errorf("Infinity.Add = %d", got)
	}
	tm = Time(math.MinInt64 + 5)
	if got := tm.Add(-100); got != Time(math.MinInt64) {
		t.Errorf("Add underflow = %d", got)
	}
}

func TestBeforeAfter(t *testing.T) {
	if !Time(1).Before(2) || Time(2).Before(1) || Time(1).Before(1) {
		t.Error("Before wrong")
	}
	if !Time(2).After(1) || Time(1).After(2) || Time(1).After(1) {
		t.Error("After wrong")
	}
}

func TestSeconds(t *testing.T) {
	if got := (2 * Second).Seconds(); got != 2.0 {
		t.Errorf("Seconds = %v", got)
	}
	if got := (500 * Millisecond).Seconds(); got != 0.5 {
		t.Errorf("Seconds = %v", got)
	}
	if got := (3 * Microsecond).Microseconds(); got != 3.0 {
		t.Errorf("Microseconds = %v", got)
	}
	if got := Time(Second).Seconds(); got != 1.0 {
		t.Errorf("Time.Seconds = %v", got)
	}
}

func TestScale(t *testing.T) {
	if got := Second.Scale(0.5); got != 500*Millisecond {
		t.Errorf("Scale = %v", got)
	}
	if got := Duration(3).Scale(1.0 / 3.0); got != 1 {
		t.Errorf("Scale rounding = %v", got)
	}
	if got := Forever.Scale(2); got != Forever {
		t.Errorf("Scale overflow = %v", got)
	}
	if got := Second.Scale(-1); got != -Second {
		t.Errorf("Scale negative = %v", got)
	}
}

func TestFromSeconds(t *testing.T) {
	if got := FromSeconds(1.5); got != 1500*Millisecond {
		t.Errorf("FromSeconds = %v", got)
	}
	if got := FromSeconds(1e300); got != Forever {
		t.Errorf("FromSeconds overflow = %v", got)
	}
	if got := FromSeconds(0); got != 0 {
		t.Errorf("FromSeconds zero = %v", got)
	}
}

func TestString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{0, "0s"},
		{250, "250ns"},
		{1500, "1.5us"},
		{2 * Millisecond, "2ms"},
		{1500 * Millisecond, "1.5s"},
		{90 * Second, "1.5m"},
		{36 * Hour, "1.5d"},
		{Forever, "inf"},
		{-250, "-250ns"},
		{-1500 * Millisecond, "-1.5s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestParseDuration(t *testing.T) {
	cases := []struct {
		in   string
		want Duration
	}{
		{"100ns", 100},
		{"100", 100},
		{"2.5us", 2500},
		{"2.5µs", 2500},
		{"3ms", 3 * Millisecond},
		{"1.5s", 1500 * Millisecond},
		{"2m", 2 * Minute},
		{"2min", 2 * Minute},
		{"4h", 4 * Hour},
		{"7d", 7 * Day},
		{"5y", 5 * Year},
		{"-3ms", -3 * Millisecond},
		{"+3ms", 3 * Millisecond},
		{" 10us ", 10 * Microsecond},
		{"inf", Forever},
	}
	for _, c := range cases {
		got, err := ParseDuration(c.in)
		if err != nil {
			t.Errorf("ParseDuration(%q) error: %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseDuration(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestParseDurationErrors(t *testing.T) {
	for _, in := range []string{"", "abc", "10xx", "ms", "1.2.3s", "--5s"} {
		if _, err := ParseDuration(in); err == nil {
			t.Errorf("ParseDuration(%q) succeeded, want error", in)
		}
	}
}

func TestParseStringRoundTrip(t *testing.T) {
	// String output must parse back to the same value for round values.
	for _, d := range []Duration{0, 1, 999, Microsecond, 42 * Millisecond,
		3 * Second, 90 * Second, 2 * Hour, Day, Year} {
		got, err := ParseDuration(d.String())
		if err != nil {
			t.Fatalf("ParseDuration(%q): %v", d.String(), err)
		}
		if got != d {
			t.Errorf("round trip %v: got %d want %d", d.String(), got, d)
		}
	}
}

// A Duration binds as a flag through its text methods: the default is kept
// until set, values parse with ParseDuration, and a bad value is an error
// that leaves the bound variable alone.
func TestDurationFlag(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var a, b Duration
	fs.TextVar(&a, "a", 3*Millisecond, "")
	fs.TextVar(&b, "b", Duration(0), "")
	if a != 3*Millisecond || b != 0 {
		t.Fatalf("defaults not applied: a=%v b=%v", a, b)
	}
	if err := fs.Parse([]string{"-b", "2.5us"}); err != nil {
		t.Fatal(err)
	}
	if a != 3*Millisecond || b != 2500 {
		t.Errorf("after parse: a=%v b=%v", a, b)
	}
	if got := fs.Lookup("a").DefValue; got != "3ms" {
		t.Errorf("DefValue = %q, want 3ms", got)
	}
	if err := fs.Parse([]string{"-a", "10xx"}); err == nil {
		t.Error("bad duration accepted")
	}
	if a != 3*Millisecond {
		t.Errorf("failed parse changed the value to %v", a)
	}
	for _, d := range []Duration{0, 1500, 42 * Millisecond, Forever, -Second} {
		text, _ := d.MarshalText()
		var back Duration
		if err := back.UnmarshalText(text); err != nil || back != d {
			t.Errorf("text round trip of %v: %q -> %v, %v", d, text, back, err)
		}
	}
}

func TestMinMax(t *testing.T) {
	if Max(1, 2) != 2 || Max(2, 1) != 2 {
		t.Error("Max wrong")
	}
	if Min(1, 2) != 1 || Min(2, 1) != 1 {
		t.Error("Min wrong")
	}
	if MaxDuration(3, 4) != 4 || MinDuration(3, 4) != 3 {
		t.Error("Duration min/max wrong")
	}
}

// Property: Add is the inverse of Sub for in-range values.
func TestQuickAddSubInverse(t *testing.T) {
	f := func(a int32, b int32) bool {
		tm := Time(a)
		d := Duration(b)
		return tm.Add(d).Sub(tm) == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: String never returns empty and parses back within rounding for
// positive durations below a year.
func TestQuickStringParse(t *testing.T) {
	f := func(v uint32) bool {
		d := Duration(v)
		s := d.String()
		if s == "" {
			return false
		}
		p, err := ParseDuration(s)
		if err != nil {
			return false
		}
		// Three decimals of the display unit bound the round-trip error.
		diff := p - d
		if diff < 0 {
			diff = -diff
		}
		return float64(diff) <= 0.001*float64(d)+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
