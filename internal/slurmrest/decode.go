package slurmrest

import (
	"bytes"
	"fmt"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// The two bulk wires, /slurm/v1/accounting and /slurm/v1/jobs, are decoded
// by hand: one small scanner plus a field switch per wire, one pass over
// the body. json.Unmarshal scans a body twice (a validating pre-scan, then
// a reflective walk), which makes a cold REST call dearer than parsing the
// CLI's text; this decoder keeps it at about the CLI's cost.
//
// The decoders follow encoding/json's rules for these types, so a body
// yields the same envelope as json.Unmarshal into it (FuzzRESTAccountingDecode
// and FuzzRESTJobsDecode hold the two against each other):
//   - the whole body must be valid JSON nested at most 10,000 deep, with
//     nothing but white space after it;
//   - unknown keys are skipped, keys match field names case-insensitively
//     (Unicode simple folding), and the last of duplicate keys wins;
//   - null leaves a field as it is; a repeated "jobs" array decodes into
//     the elements already there, as encoding/json reuses a slice;
//   - strings are unescaped, \u surrogate pairs joined, and a lone
//     surrogate or invalid UTF-8 becomes U+FFFD;
//   - a value of the wrong type, or a number that does not fit its field,
//     is an error.
//
// Strings are copied out of the body, so a row kept in a cache never pins
// a response. The small endpoints stay on encoding/json.

// maxDepth is encoding/json's nesting limit.
const maxDepth = 10000

// decodeAccounting decodes a /slurm/v1/accounting body into resp.
func decodeAccounting(body []byte, resp *AccountingResponse) error {
	return decodeEnvelope(body, &resp.Jobs, (*AccountingJob).decodeField)
}

// decodeJobs decodes a /slurm/v1/jobs body into resp.
func decodeJobs(body []byte, resp *JobsResponse) error {
	return decodeEnvelope(body, &resp.Jobs, (*Job).decodeField)
}

// decodeField stores the value of the field named key (folded, see
// scanner.key) in a, or skips the value of an unknown key.
func (a *AccountingJob) decodeField(s *scanner, key []byte) error {
	switch string(key) {
	case "job_id":
		return s.int64(&a.RawID)
	case "job_id_display":
		return s.string(&a.JobID)
	case "name":
		return s.string(&a.Name)
	case "user_name":
		return s.string(&a.User)
	case "account":
		return s.string(&a.Account)
	case "partition":
		return s.string(&a.Partition)
	case "qos":
		return s.string(&a.QOS)
	case "job_state":
		return s.string(&a.State)
	case "state_reason":
		return s.string(&a.Reason)
	case "submit_time":
		return s.int64(&a.SubmitTime)
	case "start_time":
		return s.int64(&a.StartTime)
	case "end_time":
		return s.int64(&a.EndTime)
	case "elapsed_seconds":
		return s.int64(&a.ElapsedSecs)
	case "time_limit_seconds":
		return s.int64(&a.LimitSecs)
	case "required_cpus":
		return s.int(&a.ReqCPUs)
	case "allocated_cpus":
		return s.int(&a.AllocCPUs)
	case "required_memory_mb":
		return s.int64(&a.ReqMemMB)
	case "allocated_tres":
		return s.string(&a.AllocTRES)
	case "nodes":
		return s.string(&a.NodeList)
	case "exit_code":
		return s.int(&a.ExitCode)
	case "max_rss_mb":
		return s.int64(&a.MaxRSSMB)
	case "total_cpu_seconds":
		return s.int64(&a.TotalCPUSec)
	case "gpu_utilization_percent":
		return s.float64(&a.GPUUtil)
	case "comment":
		return s.string(&a.Comment)
	case "working_directory":
		return s.string(&a.WorkDir)
	case "redacted":
		return s.bool(&a.Redacted)
	}
	return s.skip(rowDepth + 1)
}

// decodeField stores the value of the field named key (folded, see
// scanner.key) in j, or skips the value of an unknown key.
func (j *Job) decodeField(s *scanner, key []byte) error {
	switch string(key) {
	case "job_id":
		return s.string(&j.JobID)
	case "name":
		return s.string(&j.Name)
	case "user_name":
		return s.string(&j.User)
	case "account":
		return s.string(&j.Account)
	case "partition":
		return s.string(&j.Partition)
	case "qos":
		return s.string(&j.QOS)
	case "job_state":
		return s.string(&j.State)
	case "state_reason":
		return s.string(&j.Reason)
	case "submit_time":
		return s.int64(&j.SubmitTime)
	case "start_time":
		return s.int64(&j.StartTime)
	case "elapsed_seconds":
		return s.int64(&j.ElapsedSecs)
	case "time_limit_seconds":
		return s.int64(&j.LimitSecs)
	case "node_count":
		return s.int(&j.Nodes)
	case "cpus":
		return s.int(&j.CPUs)
	case "memory_mb":
		return s.int64(&j.MemMB)
	case "gpus_per_node":
		return s.int(&j.GPUsPerNode)
	case "nodes":
		return s.string(&j.NodeList)
	case "redacted":
		return s.bool(&j.Redacted)
	}
	return s.skip(rowDepth + 1)
}

// rowDepth is the nesting depth of a row object: envelope, array, row.
const rowDepth = 3

// decodeEnvelope decodes {"jobs": [row, ...]} into rows, each row's fields
// through field.
func decodeEnvelope[T any](body []byte, rows *[]T, field func(*T, *scanner, []byte) error) error {
	s := &scanner{b: body}
	switch s.peek() {
	case 'n':
		if err := s.literal("null"); err != nil {
			return err
		}
	case '{':
		s.i++
		for n := 0; ; n++ {
			more, err := s.more('}', n)
			if err != nil {
				return err
			}
			if !more {
				break
			}
			key, err := s.key()
			if err != nil {
				return err
			}
			if string(key) != "jobs" {
				err = s.skip(2)
			} else {
				err = decodeRows(s, rows, field)
			}
			if err != nil {
				return err
			}
		}
	default:
		return s.mismatch("an object")
	}
	s.space()
	if s.i != len(s.b) {
		return s.fail("after top-level value")
	}
	return nil
}

// decodeRows decodes the "jobs" array into *rows as encoding/json decodes
// an array into a slice: element i decodes into the slice's element i
// when there is one (a row object sets only the fields it names, null
// sets none), the slice is cut to the array's length, and an empty array
// leaves an empty slice. A null array leaves nil.
func decodeRows[T any](s *scanner, rows *[]T, field func(*T, *scanner, []byte) error) error {
	switch s.peek() {
	case 'n':
		if err := s.literal("null"); err != nil {
			return err
		}
		*rows = nil
		return nil
	case '[':
		s.i++
	default:
		return s.mismatch("an array")
	}
	v := *rows
	if v == nil {
		// One allocation for a server body, whose rows each open with {"
		// (no other object does); the bound keeps a hostile body from
		// asking for more than a few times its own size.
		v = make([]T, 0, min(bytes.Count(s.b[s.i:], []byte(`{"`)), len(s.b)/64))
	}
	i := 0
	for ; ; i++ {
		more, err := s.more(']', i)
		if err != nil {
			return err
		}
		if !more {
			break
		}
		if i == cap(v) {
			v = append(v[:i], *new(T))
		}
		if i == len(v) {
			v = v[:i+1]
		}
		if err := decodeRow(s, &v[i], field); err != nil {
			return err
		}
	}
	if i == 0 {
		v = []T{}
	}
	*rows = v[:i]
	return nil
}

// decodeRow decodes one row object into row.
func decodeRow[T any](s *scanner, row *T, field func(*T, *scanner, []byte) error) error {
	switch s.peek() {
	case 'n':
		return s.literal("null")
	case '{':
		s.i++
	default:
		return s.mismatch("an object")
	}
	for n := 0; ; n++ {
		more, err := s.more('}', n)
		if err != nil || !more {
			return err
		}
		key, err := s.key()
		if err != nil {
			return err
		}
		if err := field(row, s, key); err != nil {
			return err
		}
	}
}

// scanner reads one JSON body. It holds no state beyond the call.
type scanner struct {
	b   []byte
	i   int
	buf []byte   // unquoting scratch
	fk  [32]byte // a folded key; longer keys name no field
}

// fail reports a syntax error at the scanner's offset.
func (s *scanner) fail(what string) error {
	if s.i >= len(s.b) {
		return fmt.Errorf("invalid JSON: unexpected end of input %s", what)
	}
	return fmt.Errorf("invalid JSON: unexpected %q at offset %d %s", s.b[s.i], s.i, what)
}

// mismatch reports a value of the wrong type for its field.
func (s *scanner) mismatch(want string) error {
	return fmt.Errorf("JSON value at offset %d is not %s", s.i, want)
}

// space skips JSON white space.
func (s *scanner) space() {
	i := s.i
	for i < len(s.b) && (s.b[i] == ' ' || s.b[i] == '\t' || s.b[i] == '\n' || s.b[i] == '\r') {
		i++
	}
	s.i = i
}

// peek skips white space and returns the next byte, 0 at the end.
func (s *scanner) peek() byte {
	s.space()
	if s.i < len(s.b) {
		return s.b[s.i]
	}
	return 0
}

// more is called before each element of the object or array that end
// closes, n elements in. It consumes the comma before the element or the
// closing bracket, and reports whether an element follows.
func (s *scanner) more(end byte, n int) (bool, error) {
	switch c := s.peek(); {
	case c == end:
		s.i++
		return false, nil
	case n == 0:
		return true, nil
	case c == ',':
		s.i++
		return true, nil
	}
	return false, s.fail("after element")
}

// literal consumes the literal lit (true, false or null).
func (s *scanner) literal(lit string) error {
	if len(s.b)-s.i < len(lit) || string(s.b[s.i:s.i+len(lit)]) != lit {
		return s.fail("in literal " + lit)
	}
	s.i += len(lit)
	return nil
}

// token consumes a string and returns the bytes between its quotes,
// checked as encoding/json's scanner checks them: no control byte, and
// only the escapes \" \\ \/ \b \f \n \r \t and \uXXXX. plain reports that
// the bytes are the value as they stand: no escape, no byte above 0x7f.
func (s *scanner) token() (raw []byte, plain bool, err error) {
	if s.peek() != '"' {
		return nil, false, s.fail("looking for a string")
	}
	b := s.b
	start := s.i + 1
	plain = true
	for i := start; i < len(b); {
		c := b[i]
		if ' ' <= c && c < utf8.RuneSelf && c != '"' && c != '\\' {
			i++
			continue
		}
		switch {
		case c == '"':
			s.i = i + 1
			return b[start:i], plain, nil
		case c == '\\':
			plain = false
			s.i = i + 1
			if s.i == len(b) {
				return nil, false, s.fail("in string escape")
			}
			switch b[s.i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				for s.i = i + 2; s.i < i+6; s.i++ {
					if s.i == len(b) || hexDigit(b[s.i]) < 0 {
						return nil, false, s.fail("in \\u escape")
					}
				}
				i += 6
			default:
				return nil, false, s.fail("in string escape")
			}
		case c < ' ':
			s.i = i
			return nil, false, s.fail("in string")
		default:
			plain = false
			i++
		}
	}
	s.i = len(b)
	return nil, false, s.fail("in string")
}

// str consumes a string and returns its value, a copy.
func (s *scanner) str() (string, error) {
	raw, plain, err := s.token()
	if err != nil {
		return "", err
	}
	if plain || bytes.IndexByte(raw, '\\') < 0 && utf8.Valid(raw) {
		return string(raw), nil
	}
	s.buf = unquote(s.buf[:0], raw)
	return string(s.buf), nil
}

// key consumes an object key and the colon after it. It returns the key
// folded as encoding/json matches field names (ASCII letters lower-cased,
// and the two non-ASCII runes whose simple fold is ASCII, the Kelvin sign
// and the long s, mapped to k and s); a key that can name no field of the
// wires (another non-ASCII rune, or longer than any name) comes back
// empty. The result is valid until the next call.
func (s *scanner) key() ([]byte, error) {
	raw, plain, err := s.token()
	if err != nil {
		return nil, err
	}
	if plain && !hasUpper(raw) {
		// The server's own keys: the field name as it stands.
		return raw, s.colon()
	}
	if !plain {
		s.buf = unquote(s.buf[:0], raw)
		raw = s.buf
	}
	k := s.fk[:0]
	for i := 0; i < len(raw); {
		c := raw[i]
		if c < utf8.RuneSelf {
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			i++
		} else {
			r, n := utf8.DecodeRune(raw[i:])
			switch r {
			case '\u212a': // Kelvin sign
				c = 'k'
			case '\u017f': // long s
				c = 's'
			default:
				c = 0
			}
			i += n
		}
		if c == 0 || len(k) == cap(k) {
			k = k[:0]
			break
		}
		k = append(k, c)
	}
	return k, s.colon()
}

// colon consumes the colon after an object key.
func (s *scanner) colon() error {
	if s.peek() != ':' {
		return s.fail("after object key")
	}
	s.i++
	return nil
}

// hasUpper reports whether b holds an ASCII upper-case letter.
func hasUpper(b []byte) bool {
	for _, c := range b {
		if 'A' <= c && c <= 'Z' {
			return true
		}
	}
	return false
}

// unquote appends the value of a checked string body to dst, as
// encoding/json unquotes it.
func unquote(dst, raw []byte) []byte {
	for i := 0; i < len(raw); {
		c := raw[i]
		switch {
		case c == '\\':
			switch e := raw[i+1]; e {
			case 'b':
				dst = append(dst, '\b')
			case 'f':
				dst = append(dst, '\f')
			case 'n':
				dst = append(dst, '\n')
			case 'r':
				dst = append(dst, '\r')
			case 't':
				dst = append(dst, '\t')
			case 'u':
				r := u4(raw[i:])
				i += 6
				if utf16.IsSurrogate(r) {
					if dec := utf16.DecodeRune(r, u4(raw[i:])); dec != unicode.ReplacementChar {
						dst = utf8.AppendRune(dst, dec)
						i += 6
						continue
					}
					r = unicode.ReplacementChar
				}
				dst = utf8.AppendRune(dst, r)
				continue
			default: // " \ /
				dst = append(dst, e)
			}
			i += 2
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			i++
		default:
			r, n := utf8.DecodeRune(raw[i:])
			dst = utf8.AppendRune(dst, r)
			i += n
		}
	}
	return dst
}

// u4 decodes the \uXXXX escape at the start of b, or returns -1.
func u4(b []byte) rune {
	if len(b) < 6 || b[0] != '\\' || b[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range b[2:6] {
		d := hexDigit(c)
		if d < 0 {
			return -1
		}
		r = r<<4 | d
	}
	return r
}

func hexDigit(c byte) rune {
	switch {
	case '0' <= c && c <= '9':
		return rune(c - '0')
	case 'a' <= c && c <= 'f':
		return rune(c - 'a' + 10)
	case 'A' <= c && c <= 'F':
		return rune(c - 'A' + 10)
	}
	return -1
}

// number consumes a number and returns its literal, checked against
// JSON's grammar: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (s *scanner) number() ([]byte, error) {
	start := s.i
	if s.i < len(s.b) && s.b[s.i] == '-' {
		s.i++
	}
	switch {
	case s.i < len(s.b) && s.b[s.i] == '0':
		s.i++
	case s.digits() == 0:
		return nil, s.fail("in number")
	}
	if s.i < len(s.b) && s.b[s.i] == '.' {
		s.i++
		if s.digits() == 0 {
			return nil, s.fail("after decimal point in number")
		}
	}
	if s.i < len(s.b) && (s.b[s.i] == 'e' || s.b[s.i] == 'E') {
		s.i++
		if s.i < len(s.b) && (s.b[s.i] == '+' || s.b[s.i] == '-') {
			s.i++
		}
		if s.digits() == 0 {
			return nil, s.fail("in exponent of number")
		}
	}
	return s.b[start:s.i], nil
}

// digits consumes a run of decimal digits and returns its length.
func (s *scanner) digits() int {
	i := s.i
	for i < len(s.b) && '0' <= s.b[i] && s.b[i] <= '9' {
		i++
	}
	n := i - s.i
	s.i = i
	return n
}

// numberStart reports whether c can start a number.
func numberStart(c byte) bool { return c == '-' || '0' <= c && c <= '9' }

// integer consumes a number or null for an integer field of the given
// bits. set is false for null. A fraction, an exponent or a value out of
// range is an error, as strconv.ParseInt finds it.
func (s *scanner) integer(bits int) (n int64, set bool, err error) {
	c := s.peek()
	if c == 'n' {
		return 0, false, s.literal("null")
	}
	if !numberStart(c) {
		return 0, false, s.mismatch("a number")
	}
	lit, err := s.number()
	if err != nil {
		return 0, false, err
	}
	n, ok := parseInt(lit, bits)
	if !ok {
		return 0, false, fmt.Errorf("JSON number %s does not fit an int%d field", lit, bits)
	}
	return n, true, nil
}

// parseInt parses a JSON number literal as a signed integer of the given
// bits; a fraction, an exponent or a value out of range fails.
func parseInt(lit []byte, bits int) (int64, bool) {
	neg := lit[0] == '-'
	if neg {
		lit = lit[1:]
	}
	limit := uint64(1) << (bits - 1) // the magnitude of the least value
	var u uint64
	for _, c := range lit {
		d := c - '0'
		if d > 9 || u > limit/10 {
			return 0, false
		}
		if u = u*10 + uint64(d); u > limit {
			return 0, false
		}
	}
	if neg {
		return -int64(u), true
	}
	return int64(u), u < limit
}

// int64 stores a number in *p; null leaves *p as it is.
func (s *scanner) int64(p *int64) error {
	n, set, err := s.integer(64)
	if set {
		*p = n
	}
	return err
}

// int stores a number in *p; null leaves *p as it is.
func (s *scanner) int(p *int) error {
	n, set, err := s.integer(strconv.IntSize)
	if set {
		*p = int(n)
	}
	return err
}

// float64 stores a number in *p; null leaves *p as it is.
func (s *scanner) float64(p *float64) error {
	c := s.peek()
	if c == 'n' {
		return s.literal("null")
	}
	if !numberStart(c) {
		return s.mismatch("a number")
	}
	lit, err := s.number()
	if err != nil {
		return err
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return fmt.Errorf("JSON number %s does not fit a float64 field", lit)
	}
	*p = f
	return nil
}

// string stores a string in *p; null leaves *p as it is.
func (s *scanner) string(p *string) error {
	switch s.peek() {
	case '"':
		v, err := s.str()
		if err == nil {
			*p = v
		}
		return err
	case 'n':
		return s.literal("null")
	}
	return s.mismatch("a string")
}

// bool stores true or false in *p; null leaves *p as it is.
func (s *scanner) bool(p *bool) error {
	switch s.peek() {
	case 't':
		if err := s.literal("true"); err != nil {
			return err
		}
		*p = true
		return nil
	case 'f':
		if err := s.literal("false"); err != nil {
			return err
		}
		*p = false
		return nil
	case 'n':
		return s.literal("null")
	}
	return s.mismatch("a boolean")
}

// skip consumes any value; an object or array in it opens at depth.
func (s *scanner) skip(depth int) error {
	c := s.peek()
	switch {
	case c == '"':
		_, _, err := s.token()
		return err
	case c == '{' || c == '[':
		if depth > maxDepth {
			return s.fail("past the maximum nesting depth")
		}
		s.i++
		end := byte('}')
		if c == '[' {
			end = ']'
		}
		for n := 0; ; n++ {
			more, err := s.more(end, n)
			if err != nil || !more {
				return err
			}
			if c == '{' {
				if _, _, err := s.token(); err != nil {
					return err
				}
				if err := s.colon(); err != nil {
					return err
				}
			}
			if err := s.skip(depth + 1); err != nil {
				return err
			}
		}
	case c == 't':
		return s.literal("true")
	case c == 'f':
		return s.literal("false")
	case c == 'n':
		return s.literal("null")
	case numberStart(c):
		_, err := s.number()
		return err
	}
	return s.fail("looking for a value")
}
