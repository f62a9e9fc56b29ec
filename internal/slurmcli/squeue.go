package slurmcli

import (
	"fmt"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"

	"ooddash/internal/slurm"
)

// runSqueue emulates the squeue command against the controller. Supported
// options: -h/--noheader, -u/--user, -A/--account, -p/--partition,
// -t/--states (comma list or "all"), -w/--nodelist, -o/--format, and
// --limit (an extension the dashboard uses to bound responses).
func runSqueue(cl *slurm.Cluster, args []string) (string, error) {
	var (
		filter   slurm.LiveJobFilter
		noHeader bool
		format   = "%.18i %.9P %.30j %.8u %.2t %.10M %.6D %R"
	)
	// squeue without -t shows only pending/running by default.
	statesSet := false
	sc := &argScanner{args: args}
	for {
		arg, ok := sc.next()
		if !ok {
			break
		}
		switch flagName(arg) {
		case "-h", "--noheader":
			noHeader = true
		case "-u", "--user":
			v, err := sc.value(arg)
			if err != nil {
				return "", err
			}
			filter.User = v
		case "-A", "--account":
			v, err := sc.value(arg)
			if err != nil {
				return "", err
			}
			filter.Account = v
		case "-p", "--partition":
			v, err := sc.value(arg)
			if err != nil {
				return "", err
			}
			filter.Partition = v
		case "-w", "--nodelist":
			v, err := sc.value(arg)
			if err != nil {
				return "", err
			}
			filter.Node = v
		case "-t", "--states":
			v, err := sc.value(arg)
			if err != nil {
				return "", err
			}
			states, err := parseStates(v)
			if err != nil {
				return "", err
			}
			filter.States = states
			statesSet = true
		case "-o", "--format":
			v, err := sc.value(arg)
			if err != nil {
				return "", err
			}
			format = v
		case "--limit":
			v, err := sc.value(arg)
			if err != nil {
				return "", err
			}
			n, err := strconv.Atoi(v)
			if err != nil {
				return "", fmt.Errorf("slurmcli: bad --limit %q", v)
			}
			filter.Limit = n
		default:
			return "", fmt.Errorf("slurmcli: squeue: unknown option %q", arg)
		}
	}
	if !statesSet {
		filter.States = []slurm.JobState{slurm.StatePending, slurm.StateRunning,
			slurm.StateSuspended, slurm.StateCompleting}
	}

	jobs := cl.Ctl.Jobs(filter)
	now := cl.Ctl.Now()
	// One buffer for the whole listing: an all-states queue is hundreds of
	// rows.
	b := make([]byte, 0, 160*(len(jobs)+1))
	var val []byte
	if !noHeader {
		b, val = appendSqueueLine(b, val, format, nil, now)
		b = append(b, '\n')
	}
	for _, j := range jobs {
		b, val = appendSqueueLine(b, val, format, j, now)
		b = append(b, '\n')
	}
	return string(b), nil
}

// squeueHeaders maps format verbs to their column headers.
var squeueHeaders = map[byte]string{
	'i': "JOBID", 'j': "NAME", 'u': "USER", 'a': "ACCOUNT", 'P': "PARTITION",
	'q': "QOS", 'T': "STATE", 't': "ST", 'r': "REASON", 'R': "NODELIST(REASON)",
	'S': "START_TIME", 'V': "SUBMIT_TIME", 'e': "END_TIME", 'M': "TIME",
	'l': "TIME_LIMIT", 'D': "NODES", 'C': "CPUS", 'm': "MIN_MEMORY", 'b': "TRES_PER_NODE",
}

// appendSqueueLine appends one squeue format string expanded for a job (or,
// when j is nil, for the column headers) to b. Supports the "%.10x" width
// syntax (width is honored for padding but long values are not truncated,
// matching squeue's behaviour with negative widths closely enough for
// parsing). val is scratch space for one field, returned for reuse.
func appendSqueueLine(b, val []byte, format string, j *slurm.Job, now time.Time) ([]byte, []byte) {
	i := 0
	for i < len(format) {
		c := format[i]
		if c != '%' {
			b = append(b, c)
			i++
			continue
		}
		i++
		// Optional "." and width digits.
		width := 0
		if i < len(format) && format[i] == '.' {
			i++
			for i < len(format) && format[i] >= '0' && format[i] <= '9' {
				width = width*10 + int(format[i]-'0')
				i++
			}
		}
		if i >= len(format) {
			break
		}
		verb := format[i]
		i++
		if j == nil {
			val = append(val[:0], squeueHeaders[verb]...)
		} else {
			val = appendSqueueValue(val[:0], verb, j, now)
		}
		for pad := width - len(val); pad > 0; pad-- {
			b = append(b, ' ')
		}
		b = append(b, val...)
	}
	return b, val
}

// appendSqueueValue appends one format verb's value for j to b.
func appendSqueueValue(b []byte, verb byte, j *slurm.Job, now time.Time) []byte {
	switch verb {
	case 'i':
		return append(b, j.DisplayID()...)
	case 'j':
		return append(b, j.Name...)
	case 'u':
		return append(b, j.User...)
	case 'a':
		return append(b, j.Account...)
	case 'P':
		return append(b, j.Partition...)
	case 'q':
		return append(b, j.QOS...)
	case 'T':
		return append(b, j.State...)
	case 't':
		return append(b, j.State.ShortCode()...)
	case 'r':
		return append(b, j.Reason...)
	case 'R':
		if j.State == slurm.StatePending {
			b = append(b, '(')
			b = append(b, j.Reason...)
			return append(b, ')')
		}
		return append(b, slurm.NodeNameRange(j.Nodes)...)
	case 'S':
		return appendTime(b, j.StartTime)
	case 'V':
		return appendTime(b, j.SubmitTime)
	case 'e':
		return appendTime(b, j.EndTime)
	case 'M':
		return appendDuration(b, j.Elapsed(now))
	case 'l':
		return appendDuration(b, j.TimeLimit)
	case 'D':
		n := j.ReqTRES.Nodes
		if j.AllocTRES.Nodes > 0 {
			n = j.AllocTRES.Nodes
		}
		return strconv.AppendInt(b, int64(n), 10)
	case 'C':
		c := j.ReqTRES.CPUs
		if j.AllocTRES.CPUs > 0 {
			c = j.AllocTRES.CPUs
		}
		return strconv.AppendInt(b, int64(c), 10)
	case 'm':
		return appendMem(b, j.ReqTRES.MemMB)
	case 'b':
		if j.ReqTRES.GPUs == 0 {
			return append(b, "N/A"...)
		}
		return fmt.Appendf(b, "gres/gpu:%d", j.ReqTRES.GPUs)
	default:
		return utf8.AppendRune(append(b, '%'), rune(verb))
	}
}

// squeueParseFormat is the pipe-separated format the typed client requests.
const squeueParseFormat = "%i|%j|%u|%a|%P|%q|%T|%r|%V|%S|%M|%l|%D|%C|%m|%b|%R"

// QueueEntry is one parsed squeue row.
type QueueEntry struct {
	JobID       string // display ID; "1234_7" for array tasks
	Name        string
	User        string
	Account     string
	Partition   string
	QOS         string
	State       slurm.JobState
	Reason      slurm.PendingReason
	SubmitTime  time.Time
	StartTime   time.Time
	Elapsed     time.Duration
	TimeLimit   time.Duration
	Nodes       int
	CPUs        int
	MemMB       int64
	GPUsPerNode int
	NodeList    string // node range, or "(Reason)" when pending
}

// SqueueOptions are the filters the typed Squeue wrapper supports.
type SqueueOptions struct {
	User      string
	Account   string
	Partition string
	States    []slurm.JobState // nil means squeue's default (active jobs)
	AllStates bool             // -t all
	Limit     int
}

// Squeue runs squeue through the Runner and parses the rows.
func Squeue(r Runner, opts SqueueOptions) ([]QueueEntry, error) {
	args := []string{"-h", "-o", squeueParseFormat}
	if opts.User != "" {
		args = append(args, "-u", opts.User)
	}
	if opts.Account != "" {
		args = append(args, "-A", opts.Account)
	}
	if opts.Partition != "" {
		args = append(args, "-p", opts.Partition)
	}
	switch {
	case opts.AllStates:
		args = append(args, "-t", "all")
	case len(opts.States) > 0:
		names := make([]string, len(opts.States))
		for i, s := range opts.States {
			names[i] = string(s)
		}
		args = append(args, "-t", strings.Join(names, ","))
	}
	if opts.Limit > 0 {
		args = append(args, "--limit", strconv.Itoa(opts.Limit))
	}
	out, err := r.Run("squeue", args...)
	if err != nil {
		return nil, err
	}
	return parseSqueueOutput(out)
}

func parseSqueueOutput(out string) ([]QueueEntry, error) {
	entries := make([]QueueEntry, 0, countLines(out))
	var f [17]string
	err := forEachLine(out, func(line string) error {
		if isBlank(line) {
			return nil
		}
		if n := splitInto(line, '|', f[:]); n != len(f) {
			return fmt.Errorf("slurmcli: squeue row has %d fields, want 17: %q", n, line)
		}
		e := QueueEntry{
			JobID: f[0], Name: f[1], User: f[2], Account: f[3],
			Partition: f[4], QOS: f[5],
			State:    slurm.JobState(f[6]),
			Reason:   slurm.PendingReason(f[7]),
			NodeList: f[16],
		}
		var err error
		if e.SubmitTime, err = ParseTime(f[8]); err != nil {
			return err
		}
		if e.StartTime, err = ParseTime(f[9]); err != nil {
			return err
		}
		if e.Elapsed, err = ParseDuration(f[10]); err != nil {
			return err
		}
		if e.TimeLimit, err = ParseDuration(f[11]); err != nil {
			return err
		}
		if e.Nodes, err = strconv.Atoi(f[12]); err != nil {
			return fmt.Errorf("slurmcli: bad node count %q", f[12])
		}
		if e.CPUs, err = strconv.Atoi(f[13]); err != nil {
			return fmt.Errorf("slurmcli: bad cpu count %q", f[13])
		}
		if e.MemMB, err = ParseMem(f[14]); err != nil {
			return err
		}
		if f[15] != "N/A" {
			if _, gstr, ok := strings.Cut(f[15], ":"); ok {
				if e.GPUsPerNode, err = strconv.Atoi(gstr); err != nil {
					return fmt.Errorf("slurmcli: bad gres %q", f[15])
				}
			}
		}
		entries = append(entries, e)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return entries, nil
}
