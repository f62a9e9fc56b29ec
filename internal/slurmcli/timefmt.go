package slurmcli

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// slurmTimeLayout is the timestamp format Slurm commands print.
const slurmTimeLayout = "2006-01-02T15:04:05"

// FormatTime renders t the way Slurm prints timestamps; the zero time prints
// as "Unknown", matching squeue/sacct output for unset start/end times.
func FormatTime(t time.Time) string { return string(appendTime(nil, t)) }

// appendTime appends FormatTime(t) to b.
func appendTime(b []byte, t time.Time) []byte {
	if t.IsZero() {
		return append(b, "Unknown"...)
	}
	return t.UTC().AppendFormat(b, slurmTimeLayout)
}

// ParseTime is the inverse of FormatTime. "Unknown", "N/A", "None" and the
// empty string all parse to the zero time; any other input must be a
// timestamp exactly as FormatTime prints it. time.Parse alone also takes a
// one-digit hour and a fractional second after the seconds field, which
// Slurm never prints, and the zero instant, which FormatTime prints as
// "Unknown".
func ParseTime(s string) (time.Time, error) {
	switch s {
	case "", "Unknown", "N/A", "None", "NONE":
		return time.Time{}, nil
	}
	if len(s) != len(slurmTimeLayout) {
		return time.Time{}, fmt.Errorf("slurmcli: bad timestamp %q: want the form %s", s, slurmTimeLayout)
	}
	t, err := time.Parse(slurmTimeLayout, s)
	if err != nil {
		return time.Time{}, fmt.Errorf("slurmcli: bad timestamp %q: %v", s, err)
	}
	if t.IsZero() {
		return time.Time{}, fmt.Errorf("slurmcli: bad timestamp %q: the zero instant prints as Unknown", s)
	}
	return t.UTC(), nil
}

// FormatDuration renders d in Slurm's elapsed format: [D-]HH:MM:SS.
func FormatDuration(d time.Duration) string { return string(appendDuration(nil, d)) }

// appendDuration appends FormatDuration(d) to b. It and appendMem use
// strconv rather than fmt: a listing formats three of these per row, and
// with fmt they nearly doubled an all-states squeue under the race detector.
func appendDuration(b []byte, d time.Duration) []byte {
	if d < 0 {
		d = 0
	}
	total := int64(d / time.Second)
	days := total / 86400
	total %= 86400
	if days > 0 {
		b = strconv.AppendInt(b, days, 10)
		b = append(b, '-')
	}
	for i, v := range [3]int64{total / 3600, (total % 3600) / 60, total % 60} {
		if i > 0 {
			b = append(b, ':')
		}
		b = append(b, byte('0'+v/10), byte('0'+v%10))
	}
	return b
}

// maxDurationSecs is the longest time.Duration in whole seconds.
const maxDurationSecs = math.MaxInt64 / int64(time.Second)

// ParseDuration is the inverse of FormatDuration. It also accepts Slurm's
// MM:SS short form and "UNLIMITED"/"INVALID" (both parse to zero). A
// negative field, or a total past the longest time.Duration, is an error.
func ParseDuration(s string) (time.Duration, error) {
	switch s {
	case "", "UNLIMITED", "INVALID", "Partition_Limit", "NOT_SET":
		return 0, nil
	}
	bad := func(err error) (time.Duration, error) {
		return 0, fmt.Errorf("slurmcli: bad duration %q: %v", s, err)
	}
	var total int64
	rest := s
	if d, r, ok := strings.Cut(rest, "-"); ok {
		n, err := durationField(d)
		if err != nil {
			return bad(err)
		}
		total, rest = n*86400, r
	}
	var parts [3]string
	n := splitInto(rest, ':', parts[:])
	if n < 2 || n > 3 {
		return 0, fmt.Errorf("slurmcli: bad duration %q", s)
	}
	// Each field is at most maxDurationSecs, so no product or sum below
	// overflows before the total is checked.
	units := [3]int64{3600, 60, 1}
	for i, p := range parts[:n] {
		v, err := durationField(p)
		if err != nil {
			return bad(err)
		}
		total += v * units[3-n+i]
	}
	if total > maxDurationSecs {
		return bad(errors.New("exceeds the longest duration"))
	}
	return time.Duration(total) * time.Second, nil
}

// durationField parses one field of a duration: a decimal from 0 to
// maxDurationSecs.
func durationField(f string) (int64, error) {
	n, err := strconv.ParseInt(f, 10, 64)
	switch {
	case err != nil:
		return 0, err
	case n < 0:
		return 0, fmt.Errorf("negative field %q", f)
	case n > maxDurationSecs:
		return 0, fmt.Errorf("field %q exceeds the longest duration", f)
	}
	return n, nil
}

// FormatMem renders a memory size in MiB the way Slurm prints ReqMem, using
// G when the value is an exact number of GiB.
func FormatMem(mb int64) string { return string(appendMem(nil, mb)) }

// appendMem appends FormatMem(mb) to b.
func appendMem(b []byte, mb int64) []byte {
	if mb >= 1024 && mb%1024 == 0 {
		return append(strconv.AppendInt(b, mb/1024, 10), 'G')
	}
	return append(strconv.AppendInt(b, mb, 10), 'M')
}

// ParseMem parses "8000M" / "16G" / bare MiB counts. A negative size, or
// one past the largest int64 MiB count, is an error.
func ParseMem(s string) (int64, error) {
	if s == "" {
		return 0, nil
	}
	in := s
	mult := int64(1)
	switch s[len(s)-1] {
	case 'M', 'm':
		s = s[:len(s)-1]
	case 'G', 'g':
		s = s[:len(s)-1]
		mult = 1024
	case 'T', 't':
		s = s[:len(s)-1]
		mult = 1024 * 1024
	}
	// Slurm sometimes prints fractional gigabytes (e.g. "1.50G").
	if strings.Contains(s, ".") {
		f, err := strconv.ParseFloat(s, 64)
		switch {
		case err != nil:
			return 0, fmt.Errorf("slurmcli: bad memory %q: %v", in, err)
		case f < 0:
			return 0, fmt.Errorf("slurmcli: bad memory %q: negative size", in)
		case f*float64(mult) >= 0x1p63:
			return 0, fmt.Errorf("slurmcli: bad memory %q: size out of range", in)
		}
		return int64(f * float64(mult)), nil
	}
	n, err := strconv.ParseInt(s, 10, 64)
	switch {
	case err != nil:
		return 0, fmt.Errorf("slurmcli: bad memory %q: %v", in, err)
	case n < 0:
		return 0, fmt.Errorf("slurmcli: bad memory %q: negative size", in)
	case n > math.MaxInt64/mult:
		return 0, fmt.Errorf("slurmcli: bad memory %q: size out of range", in)
	}
	return n * mult, nil
}
