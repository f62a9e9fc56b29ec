package slurmcli

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestFormatParseTime(t *testing.T) {
	ts := time.Date(2026, 7, 1, 8, 30, 15, 0, time.UTC)
	s := FormatTime(ts)
	if s != "2026-07-01T08:30:15" {
		t.Fatalf("FormatTime = %q", s)
	}
	back, err := ParseTime(s)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(ts) {
		t.Fatalf("round trip %v -> %v", ts, back)
	}
}

func TestParseTimeSpecials(t *testing.T) {
	for _, s := range []string{"", "Unknown", "N/A", "None"} {
		got, err := ParseTime(s)
		if err != nil || !got.IsZero() {
			t.Errorf("ParseTime(%q) = %v, %v; want zero, nil", s, got, err)
		}
	}
	// Fractional seconds, a one-digit hour and the zero instant parse with
	// time.Parse on Slurm's layout, but FormatTime prints none of them.
	for _, in := range []string{
		"yesterday", "2026-07-01T08:30:15.5", "2026-07-01T08:30:15,25",
		"2026-07-01T08:30:15.000000000", "2026-07-01T8:30:15", "0001-01-01T00:00:00",
	} {
		if got, err := ParseTime(in); err == nil || !strings.Contains(err.Error(), in) {
			t.Errorf("ParseTime(%q) = %v, %v; want an error naming the input", in, got, err)
		}
	}
	if got := FormatTime(time.Time{}); got != "Unknown" {
		t.Errorf("FormatTime(zero) = %q, want Unknown", got)
	}
}

func TestFormatDuration(t *testing.T) {
	tests := []struct {
		d    time.Duration
		want string
	}{
		{0, "00:00:00"},
		{90 * time.Second, "00:01:30"},
		{3*time.Hour + 25*time.Minute + 45*time.Second, "03:25:45"},
		{26 * time.Hour, "1-02:00:00"},
		{96 * time.Hour, "4-00:00:00"},
		{-time.Minute, "00:00:00"},
	}
	for _, tc := range tests {
		if got := FormatDuration(tc.d); got != tc.want {
			t.Errorf("FormatDuration(%v) = %q, want %q", tc.d, got, tc.want)
		}
	}
}

func TestParseDuration(t *testing.T) {
	tests := []struct {
		in   string
		want time.Duration
	}{
		{"00:00:00", 0},
		{"00:01:30", 90 * time.Second},
		{"1-02:00:00", 26 * time.Hour},
		{"05:30", 5*time.Minute + 30*time.Second},
		{"UNLIMITED", 0},
		{"", 0},
	}
	for _, tc := range tests {
		got, err := ParseDuration(tc.in)
		if err != nil {
			t.Fatalf("ParseDuration(%q): %v", tc.in, err)
		}
		if got != tc.want {
			t.Errorf("ParseDuration(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
	for _, bad := range []string{"abc", "1:2:3:4", "x-00:00:00"} {
		if _, err := ParseDuration(bad); err == nil {
			t.Errorf("ParseDuration(%q): expected error", bad)
		}
	}
}

func TestDurationRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := time.Duration(r.Int63n(10*86400)) * time.Second
		back, err := ParseDuration(FormatDuration(d))
		return err == nil && back == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFormatParseMem(t *testing.T) {
	tests := []struct {
		mb   int64
		want string
	}{
		{512, "512M"},
		{1024, "1G"},
		{1536, "1536M"},
		{256 * 1024, "256G"},
	}
	for _, tc := range tests {
		s := FormatMem(tc.mb)
		if s != tc.want {
			t.Errorf("FormatMem(%d) = %q, want %q", tc.mb, s, tc.want)
		}
		back, err := ParseMem(s)
		if err != nil || back != tc.mb {
			t.Errorf("ParseMem(%q) = %d, %v; want %d", s, back, err, tc.mb)
		}
	}
	if got, err := ParseMem("1.50G"); err != nil || got != 1536 {
		t.Errorf("ParseMem(1.50G) = %d, %v; want 1536", got, err)
	}
	if got, err := ParseMem(""); err != nil || got != 0 {
		t.Errorf("ParseMem(\"\") = %d, %v", got, err)
	}
}

// TestParseRejectsNegativeAndOverflow: a negative field or size, and a
// value past the longest time.Duration or the largest int64 MiB count, is
// an error naming the input, not a wrapped or negative value.
func TestParseRejectsNegativeAndOverflow(t *testing.T) {
	for _, in := range []string{
		"1-00:-5:00", "1--1:00:00", "-1-00:00:00", "00:00:-1", "-5:00",
		"106751991167-00:00:00", "00:00:9223372037", "106751-23:47:17",
	} {
		if d, err := ParseDuration(in); err == nil || !strings.Contains(err.Error(), in) {
			t.Errorf("ParseDuration(%q) = %v, %v; want an error naming the input", in, d, err)
		}
	}
	// The longest duration Slurm's format can carry still parses.
	if d, err := ParseDuration("106751-23:47:16"); err != nil || d != 9223372036*time.Second {
		t.Errorf("ParseDuration(106751-23:47:16) = %v, %v", d, err)
	}
	for _, in := range []string{
		"-5M", "-1.5G", "-0.5", "9223372036854775807G", "9007199254740993T",
		"9223372036854775808", "9007199254740992.5G",
	} {
		if mb, err := ParseMem(in); err == nil || !strings.Contains(err.Error(), in) {
			t.Errorf("ParseMem(%q) = %d, %v; want an error naming the input", in, mb, err)
		}
	}
	if mb, err := ParseMem("9223372036854775807M"); err != nil || mb != math.MaxInt64 {
		t.Errorf("ParseMem(MaxInt64 M) = %d, %v", mb, err)
	}
	if mb, err := ParseMem("8796093022207T"); err != nil || mb != 8796093022207<<20 {
		t.Errorf("ParseMem(8796093022207T) = %d, %v", mb, err)
	}
}
