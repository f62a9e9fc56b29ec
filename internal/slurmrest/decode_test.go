package slurmrest

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"ooddash/internal/slurm"
	"ooddash/internal/slurmcli"
)

// checkWireDecoder holds decode to encoding/json on body: it fails exactly
// when json.Unmarshal does, and otherwise yields the same envelope and,
// through the client's converters, the same rows. No string it returns may
// point into body: the check overwrites body before comparing.
func checkWireDecoder[E any, R any](t *testing.T, body []byte, decode func([]byte, *E) error, rows func(*E) (R, error)) {
	t.Helper()
	var want, got E
	wantErr := json.Unmarshal(body, &want)
	own := bytes.Clone(body)
	err := decode(own, &got)
	if wantErr != nil {
		if err == nil {
			t.Fatalf("encoding/json rejects %q (%v); the decoder accepts it as %+v", body, wantErr, got)
		}
		return
	}
	if err != nil {
		t.Fatalf("encoding/json accepts %q; the decoder fails: %v", body, err)
	}
	clear(own)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoding %q:\ngot  %+v\nwant %+v", body, got, want)
	}
	gotRows, gotErr := rows(&got)
	wantRows, wantRowsErr := rows(&want)
	if (gotErr == nil) != (wantRowsErr == nil) || !reflect.DeepEqual(gotRows, wantRows) {
		t.Fatalf("rows from %q:\ngot  %+v, %v\nwant %+v, %v", body, gotRows, gotErr, wantRows, wantRowsErr)
	}
}

func checkAccounting(t *testing.T, body []byte) {
	t.Helper()
	checkWireDecoder(t, body, decodeAccounting, (*AccountingResponse).rows)
}

func checkJobs(t *testing.T, body []byte) {
	t.Helper()
	checkWireDecoder(t, body, decodeJobs, func(r *JobsResponse) ([]slurmcli.QueueEntry, error) { return r.rows(), nil })
}

// TestWireDecodersFollowEncodingJSON walks encoding/json's decoding rules
// one body at a time through both decoders, and pins what each rule does.
func TestWireDecodersFollowEncodingJSON(t *testing.T) {
	deep := func(n int) string { // {"x": n-1 nested arrays}: n levels in all
		return `{"x":` + strings.Repeat("[", n-1) + strings.Repeat("]", n-1) + `,"jobs":[]}`
	}
	cases := []struct {
		name, body string
		ok         bool
		user       string // the first row's user_name when ok
	}{
		{"unknown keys skipped", `{"meta":{"v":[1,-2.5e3,true,null,"x\"y"]},"jobs":[{"extra":{"a":[{}]},"user_name":"u"}]}`, true, "u"},
		{"keys fold case", `{"JOBS":[{"User_NAME":"u"}]}`, true, "u"},
		{"Kelvin sign and long s fold", `{"jobſ":[{"uſer_name":"u","wor` + "\u212a" + `ing_directory":"w"}]}`, true, "u"},
		{"other non-ASCII keys match nothing", `{"jobs":[{"üser_name":"u"}]}`, true, ""},
		{"last duplicate wins", `{"jobs":[{"user_name":"a","USER_NAME":"b"}]}`, true, "b"},
		{"null leaves a field", `{"jobs":[{"user_name":"a","user_name":null}]}`, true, "a"},
		{"null row", `{"jobs":[null]}`, true, ""},
		{"null array", `{"jobs":[{"user_name":"a"}],"jobs":null}`, true, ""},
		{"repeated array decodes into the rows there", `{"jobs":[{"user_name":"a","name":"n"},{}],"jobs":[{"name":"m"}],"jobs":[{},{}]}`, true, "a"},
		{"empty array", `{"jobs":[{"user_name":"a"}],"jobs":[],"jobs":[{"name":"n"}]}`, true, ""},
		{"escapes", `{"jobs":[{"user_name":"\"\\\/\b\f\n\r\t\u00e9\u003c"}]}`, true, "\"\\/\b\f\n\r\té<"},
		{"surrogate pair", `{"jobs":[{"user_name":"\ud83d\ude00"}]}`, true, "😀"},
		{"lone surrogates", `{"jobs":[{"user_name":"\ud83dx\ude00\ud83d\ud83d"}]}`, true, "\ufffdx\ufffd\ufffd\ufffd"},
		{"invalid UTF-8", "{\"jobs\":[{\"user_name\":\"a\xffb\xed\xa0\x80\"}]}", true, "a\ufffdb\ufffd\ufffd\ufffd"},
		{"white space", " \t\r\n{ \"jobs\" : [ { \"user_name\" : \"u\" } ] } \n", true, "u"},
		{"top-level null", `null`, true, ""},
		{"depth at the limit", deep(10000), true, ""},
		{"depth past the limit", deep(10001), false, ""},
		{"number too big", `{"jobs":[{"submit_time":9223372036854775808}]}`, false, ""},
		{"fraction in an integer", `{"jobs":[{"submit_time":1.0}]}`, false, ""},
		{"exponent in an integer", `{"jobs":[{"submit_time":1e3}]}`, false, ""},
		{"string in an integer", `{"jobs":[{"submit_time":"1"}]}`, false, ""},
		{"number in a string", `{"jobs":[{"user_name":1}]}`, false, ""},
		{"object for the array", `{"jobs":{}}`, false, ""},
		{"array at the top", `[]`, false, ""},
		{"trailing data", `{"jobs":[]} {}`, false, ""},
		{"trailing comma", `{"jobs":[{"user_name":"u",}]}`, false, ""},
		{"leading zero", `{"jobs":[{"submit_time":01}]}`, false, ""},
		{"bad escape", `{"jobs":[{"user_name":"\'"}]}`, false, ""},
		{"control byte in a string", "{\"jobs\":[{\"user_name\":\"a\tb\"}]}", false, ""},
		{"bad escape in a skipped key", `{"x\q":1,"jobs":[]}`, false, ""},
		{"empty body", ``, false, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			body := []byte(c.body)
			checkAccounting(t, body)
			checkJobs(t, body)
			var acct AccountingResponse
			var jobs JobsResponse
			errA, errJ := decodeAccounting(body, &acct), decodeJobs(body, &jobs)
			if (errA == nil) != c.ok || (errJ == nil) != c.ok {
				t.Fatalf("accounting: %v, jobs: %v; want ok=%v", errA, errJ, c.ok)
			}
			if c.ok && c.user != "" && (acct.Jobs[0].User != c.user || jobs.Jobs[0].User != c.user) {
				t.Fatalf("user_name %q and %q, want %q", acct.Jobs[0].User, jobs.Jobs[0].User, c.user)
			}
		})
	}
	var jobs JobsResponse
	if err := decodeJobs([]byte(`{"jobs":[{"user_name":"a","name":"n"},{}],"jobs":[{"name":"m"}],"jobs":[{},{}]}`), &jobs); err != nil ||
		len(jobs.Jobs) != 2 || jobs.Jobs[0] != (Job{User: "a", Name: "m"}) || jobs.Jobs[1] != (Job{}) {
		t.Errorf("repeated arrays decoded to %+v, %v", jobs.Jobs, err)
	}
}

// wireSeeds returns real bodies of the REST endpoint path (a URL ending in
// ? or &), as staff and as a user who sees other users' rows redacted,
// over the test cluster plus jobs whose names hold markup, quotes,
// non-ASCII and invalid UTF-8; and those jobs' body reworked into what
// another server could send: raw invalid UTF-8, \u escapes and surrogates,
// keys in other cases, duplicate and unknown keys, nulls and a repeated
// array.
func wireSeeds(f *testing.F, path string) [][]byte {
	e := newRestEnv(f, Options{})
	e.seedJobs(f)
	for _, name := range []string{`<b>&"quoted"</b>`, "naïve 日本 😀", "bad\xffutf8\xc3"} {
		if _, err := e.cluster.Ctl.Submit(slurm.SubmitRequest{Name: name, User: "bob", Account: "lab-a",
			Partition: "cpu", QOS: "normal", TimeLimit: 10 * time.Minute, WorkDir: "/home/bob/" + name,
			ReqTRES: slurm.TRES{Nodes: 1, CPUs: 1, MemMB: 512},
			Profile: slurm.UsageProfile{CPUUtilization: 0.5, MemUtilization: 0.5, ActualDuration: time.Minute}}); err != nil {
			f.Fatal(err)
		}
	}
	e.cluster.Ctl.Tick()
	e.clock.Advance(2 * time.Minute)
	e.cluster.Ctl.Tick()
	// Small bodies keep the fuzzer's minimizing quick: three rows each as
	// staff and as alice (bob's rows redacted), and bob's rows as staff.
	var seeds [][]byte
	for _, q := range []struct{ tok, query string }{
		{tokStaff, "limit=3"}, {tokAlice, "limit=3"}, {tokStaff, "user=bob"},
	} {
		rec := e.get(q.tok, path+q.query)
		if rec.Code != 200 {
			f.Fatalf("%s%s: status %d", path, q.query, rec.Code)
		}
		seeds = append(seeds, rec.Body.Bytes())
	}
	staff := seeds[2]
	for _, r := range [][2]string{
		{`\ufffd`, "\xff\xfe"},
		{"😀", `\ud83d\ude00`},
		{"😀", `\ude00\ud83d`},
		{"ï", `\u00ef`},
		{`"user_name"`, `"User_Name"`},
		{`"job_state"`, `"JOB_ſTATE"`},
		{`"working_directory"`, `"wor` + "\u212a" + `ing_directory"`},
		{`{"job_id"`, `{"name":"shadowed","job_id"`},
		{`"name":`, `"name":null,"name":`},
		{`"qos":"normal"`, `"qos":"normal","qos":null`},
		{`{"jobs":`, `{"meta":{"plugin":{"type":"openapi/v0.0.40"},"warnings":[]},"jobs":`},
		{`"jobs":[`, `"jobs":[{"name":"dropped"}],"JOBS":[null,`},
	} {
		if bytes.Contains(staff, []byte(r[0])) {
			seeds = append(seeds, bytes.ReplaceAll(staff, []byte(r[0]), []byte(r[1])))
		}
	}
	open := bytes.Clone(bytes.TrimSuffix(bytes.TrimSpace(staff), []byte("}")))
	return append(seeds, append(open, `,"jobs":[{"name":"merged"}]}`...))
}

// FuzzRESTAccountingDecode: the accounting decoder never panics, fails
// exactly on the bodies encoding/json rejects, and otherwise returns the
// envelope and rows json.Unmarshal and the converters give, holding no
// byte of the body. Seeds are real accounting bodies and reworkings of
// them (wireSeeds).
func FuzzRESTAccountingDecode(f *testing.F) {
	for _, body := range wireSeeds(f, "/slurm/v1/accounting?") {
		f.Add(body)
	}
	f.Fuzz(checkAccounting)
}

// FuzzRESTJobsDecode: the same for the live-queue decoder, seeded with
// real /slurm/v1/jobs bodies.
func FuzzRESTJobsDecode(f *testing.F) {
	for _, body := range wireSeeds(f, "/slurm/v1/jobs?all_states=1&") {
		f.Add(body)
	}
	f.Fuzz(checkJobs)
}
