package push

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// FuzzSSEDecoder: the decoder never panics on any stream, and every event
// it returns carries the decoder's LastID. An event the Encoder writes
// decodes back to its name, id and data (trailing newlines aside, which the
// framing drops), across a heartbeat, and an event without an id keeps the
// last one. Seeds are TestSSERoundTrip's events.
func FuzzSSEDecoder(f *testing.F) {
	seeds := []struct {
		name string
		id   int64
		data string
	}{
		{"system_status", 7, `{"a":1}`},
		{"multi", 8, "line1\nline2"},
		{"shutdown", 0, `{}`},
	}
	var stream bytes.Buffer
	enc := NewEncoder(&stream)
	enc.WriteComment("hb 1")
	for _, s := range seeds {
		enc.WriteEvent(s.name, s.id, []byte(s.data))
	}
	for _, s := range seeds {
		f.Add(stream.String(), s.name, s.id, []byte(s.data), int64(0))
	}
	f.Add("id: 3\ndata: x\n\n: hb\nid: nope\nevent: e\n\n", "e", int64(1), []byte("a\n\nb\n"), int64(9))

	f.Fuzz(func(t *testing.T, raw, name string, id int64, data []byte, id2 int64) {
		dec := NewDecoder(strings.NewReader(raw))
		for {
			ev, err := dec.Next()
			if err != nil {
				break
			}
			if ev.ID != dec.LastID() {
				t.Fatalf("event id %d, LastID %d", ev.ID, dec.LastID())
			}
		}

		// The framing has no escapes: a name is one trimmed line, and a
		// carriage return would end a line early.
		if strings.ContainsAny(name, "\r\n") || name != strings.TrimSpace(name) || bytes.ContainsRune(data, '\r') {
			return
		}
		var buf bytes.Buffer
		enc = NewEncoder(&buf)
		if err := enc.WriteEvent(name, id, data); err != nil {
			t.Fatal(err)
		}
		enc.WriteComment("heartbeat")
		if err := enc.WriteEvent("next", id2, []byte("second")); err != nil {
			t.Fatal(err)
		}
		dec = NewDecoder(&buf)
		want := max(id, 0)
		ev, err := dec.Next()
		if err != nil || ev.Name != name || ev.ID != want || !bytes.Equal(ev.Data, bytes.TrimRight(data, "\n")) {
			t.Fatalf("WriteEvent(%q, %d, %q) decoded to %+v, %v", name, id, data, ev, err)
		}
		if id2 > 0 {
			want = id2
		}
		ev, err = dec.Next()
		if err != nil || ev.Name != "next" || ev.ID != want || dec.LastID() != want || string(ev.Data) != "second" {
			t.Fatalf("second event after id %d, id2 %d decoded to %+v (LastID %d), %v", id, id2, ev, dec.LastID(), err)
		}
		if _, err := dec.Next(); err != io.EOF {
			t.Fatalf("trailing Next: %v, want EOF", err)
		}
	})
}
