// Package simtime provides the integer-nanosecond time base used throughout
// the simulator.
//
// All simulated clocks are 64-bit signed nanosecond counts. Using integers
// (rather than float64 seconds) keeps event ordering exact and makes every
// simulation bit-for-bit reproducible across platforms; at nanosecond
// resolution the representable range (~292 years) comfortably covers any
// checkpointing study.
package simtime

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Time is an absolute simulated time, in nanoseconds since the start of the
// simulation. The zero value is the simulation epoch.
type Time int64

// Duration is a span of simulated time in nanoseconds. Negative durations
// are representable but rejected by most consumers.
type Duration int64

// Common durations.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
	Minute               = 60 * Second
	Hour                 = 60 * Minute
	Day                  = 24 * Hour
	Year                 = 8766 * Hour // Julian year: 365.25 days
)

// Infinity is a sentinel Time later than any reachable simulation time.
const Infinity Time = math.MaxInt64

// Forever is a sentinel Duration longer than any reachable simulation span.
const Forever Duration = math.MaxInt64

// Add returns t shifted forward by d. It saturates at Infinity instead of
// wrapping on overflow, so code that advances toward a sentinel deadline
// stays monotonic.
func (t Time) Add(d Duration) Time {
	s := Time(int64(t) + int64(d))
	if d > 0 && s < t { // overflow
		return Infinity
	}
	if d < 0 && s > t { // underflow
		return Time(math.MinInt64)
	}
	return s
}

// Sub returns the duration t - u.
func (t Time) Sub(u Time) Duration { return Duration(int64(t) - int64(u)) }

// Before reports whether t is strictly earlier than u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t is strictly later than u.
func (t Time) After(u Time) bool { return t > u }

// Seconds returns the time as a float64 second count.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time with an adaptive unit, e.g. "1.234ms".
func (t Time) String() string { return Duration(t).String() }

// Seconds returns the duration as a float64 second count.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Microseconds returns the duration as a float64 microsecond count.
func (d Duration) Microseconds() float64 { return float64(d) / float64(Microsecond) }

// Scale returns d multiplied by the dimensionless factor f, rounding to the
// nearest nanosecond and saturating at Forever.
func (d Duration) Scale(f float64) Duration {
	v := float64(d) * f
	if v >= float64(math.MaxInt64) {
		return Forever
	}
	if v <= float64(math.MinInt64) {
		return Duration(math.MinInt64)
	}
	return Duration(math.Round(v))
}

// FromSeconds converts a float64 second count into a Duration, saturating at
// Forever.
func FromSeconds(s float64) Duration {
	v := s * float64(Second)
	if v >= float64(math.MaxInt64) {
		return Forever
	}
	if v <= float64(math.MinInt64) {
		return Duration(math.MinInt64)
	}
	return Duration(math.Round(v))
}

// unitTable is ordered largest to smallest for formatting.
var unitTable = []struct {
	name string
	d    Duration
}{
	{"y", Year},
	{"d", Day},
	{"h", Hour},
	{"m", Minute},
	{"s", Second},
	{"ms", Millisecond},
	{"us", Microsecond},
	{"ns", Nanosecond},
}

// String formats the duration with an adaptive unit: the largest unit whose
// magnitude is at least 1, printed with three significant decimals, e.g.
// "250ns", "1.5us", "2.34h". Forever prints as "inf".
func (d Duration) String() string {
	if d == Forever {
		return "inf"
	}
	if d == 0 {
		return "0s"
	}
	neg := d < 0
	a := d
	if neg {
		a = -a
	}
	for _, u := range unitTable {
		if a >= u.d {
			v := float64(a) / float64(u.d)
			s := strconv.FormatFloat(v, 'f', 3, 64)
			s = strings.TrimRight(s, "0")
			s = strings.TrimRight(s, ".")
			if neg {
				return "-" + s + u.name
			}
			return s + u.name
		}
	}
	return fmt.Sprintf("%dns", int64(d))
}

// MarshalText renders d in its String form, so a Duration can be bound
// directly as a command-line flag with flag.TextVar.
func (d Duration) MarshalText() ([]byte, error) { return []byte(d.String()), nil }

// UnmarshalText parses text with ParseDuration; on error d is unchanged.
func (d *Duration) UnmarshalText(text []byte) error {
	v, err := ParseDuration(string(text))
	if err != nil {
		return err
	}
	*d = v
	return nil
}

// ParseDuration parses strings like "100ns", "2.5us", "3ms", "1.5s", "2m",
// "4h", "7d", "5y". A bare number is interpreted as nanoseconds. Unit names
// accept "us" or "µs" for microseconds.
func ParseDuration(s string) (Duration, error) {
	orig := s
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, fmt.Errorf("simtime: empty duration")
	}
	if s == "inf" {
		return Forever, nil
	}
	neg := false
	if s[0] == '+' || s[0] == '-' {
		neg = s[0] == '-'
		s = s[1:]
	}
	i := len(s)
	for i > 0 {
		c := s[i-1]
		if c >= '0' && c <= '9' || c == '.' {
			break
		}
		i--
	}
	num, unit := s[:i], strings.TrimSpace(s[i:])
	if num == "" {
		return 0, fmt.Errorf("simtime: missing number in %q", orig)
	}
	for _, c := range num {
		if (c < '0' || c > '9') && c != '.' {
			return 0, fmt.Errorf("simtime: bad number in %q", orig)
		}
	}
	v, err := strconv.ParseFloat(num, 64)
	if err != nil {
		return 0, fmt.Errorf("simtime: bad number in %q: %v", orig, err)
	}
	var base Duration
	switch unit {
	case "", "ns":
		base = Nanosecond
	case "us", "µs", "μs":
		base = Microsecond
	case "ms":
		base = Millisecond
	case "s":
		base = Second
	case "m", "min":
		base = Minute
	case "h":
		base = Hour
	case "d":
		base = Day
	case "y":
		base = Year
	default:
		return 0, fmt.Errorf("simtime: unknown unit %q in %q", unit, orig)
	}
	d := base.Scale(v)
	if neg {
		d = -d
	}
	return d, nil
}

// Max returns the larger of a and b.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// Min returns the smaller of a and b.
func Min(a, b Time) Time {
	if a < b {
		return a
	}
	return b
}

// MaxDuration returns the larger of a and b.
func MaxDuration(a, b Duration) Duration {
	if a > b {
		return a
	}
	return b
}

// MinDuration returns the smaller of a and b.
func MinDuration(a, b Duration) Duration {
	if a < b {
		return a
	}
	return b
}
