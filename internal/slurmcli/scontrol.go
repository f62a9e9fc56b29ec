package slurmcli

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"ooddash/internal/slurm"
)

// runScontrol emulates `scontrol show <entity> [name]` plus the hold/release
// subcommands. Entities: node, job, partition, assoc.
func runScontrol(cl *slurm.Cluster, args []string) (string, error) {
	if len(args) == 0 {
		return "", fmt.Errorf("slurmcli: scontrol: missing subcommand")
	}
	switch args[0] {
	case "show":
		if len(args) < 2 {
			return "", fmt.Errorf("slurmcli: scontrol show: missing entity")
		}
		entity := args[1]
		rest := args[2:]
		switch entity {
		case "node", "nodes":
			return scontrolShowNode(cl, rest)
		case "job", "jobs":
			return scontrolShowJob(cl, rest)
		case "partition", "partitions":
			return scontrolShowPartition(cl, rest)
		case "assoc", "assoc_mgr":
			return scontrolShowAssoc(cl, rest)
		case "reservation", "res":
			return scontrolShowReservation(cl)
		default:
			return "", fmt.Errorf("slurmcli: scontrol show: unknown entity %q", entity)
		}
	case "hold", "release", "suspend", "resume":
		if len(args) < 2 {
			return "", fmt.Errorf("slurmcli: scontrol %s: missing job id", args[0])
		}
		id, user, err := jobIDAndUser(args[1:])
		if err != nil {
			return "", err
		}
		switch args[0] {
		case "hold":
			err = cl.Ctl.Hold(id, user)
		case "release":
			err = cl.Ctl.Release(id, user)
		case "suspend":
			err = cl.Ctl.Suspend(id, user)
		case "resume":
			err = cl.Ctl.Resume(id, user)
		}
		return "", err
	default:
		return "", fmt.Errorf("slurmcli: scontrol: unknown subcommand %q", args[0])
	}
}

// jobIDAndUser parses "<jobid> [user=<name>]". The user= extension stands in
// for the invoking UID a real scontrol would have.
func jobIDAndUser(args []string) (slurm.JobID, string, error) {
	n, err := strconv.ParseInt(args[0], 10, 64)
	if err != nil {
		return 0, "", fmt.Errorf("slurmcli: bad job id %q", args[0])
	}
	user := "root"
	for _, a := range args[1:] {
		if v, ok := strings.CutPrefix(a, "user="); ok {
			user = v
		}
	}
	return slurm.JobID(n), user, nil
}

func scontrolShowNode(cl *slurm.Cluster, args []string) (string, error) {
	var nodes []*slurm.Node
	if len(args) > 0 && args[0] != "" {
		names, err := slurm.ExpandNodeRange(args[0])
		if err != nil {
			return "", err
		}
		for _, name := range names {
			n := cl.Ctl.Node(name)
			if n == nil {
				return "", fmt.Errorf("slurmcli: Node %s not found", name)
			}
			nodes = append(nodes, n)
		}
	} else {
		nodes = cl.Ctl.Nodes()
	}
	now := cl.Ctl.Now()
	blocks := make([]string, 0, len(nodes))
	for _, n := range nodes {
		blocks = append(blocks, formatNodeBlock(n, now))
	}
	return strings.Join(blocks, "\n") + "\n", nil
}

// formatNodeBlock renders one node the way `scontrol show node` does:
// key=value pairs wrapped onto indented continuation lines.
func formatNodeBlock(n *slurm.Node, now time.Time) string {
	state := string(n.EffectiveState())
	gres := "(null)"
	if n.GPUs > 0 {
		gres = fmt.Sprintf("gpu:%s:%d", n.GPUType, n.GPUs)
	}
	gresUsed := ""
	if n.GPUs > 0 {
		gresUsed = fmt.Sprintf("gpu:%s:%d", n.GPUType, n.Alloc.GPUs)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "NodeName=%s Arch=%s CoresPerSocket=%d\n", n.Name, n.Arch, n.CPUs/2)
	fmt.Fprintf(&b, "   CPUAlloc=%d CPUTot=%d CPULoad=%.2f\n", n.Alloc.CPUs, n.CPUs, n.CPULoad)
	fmt.Fprintf(&b, "   AvailableFeatures=%s\n", strings.Join(n.Features, ","))
	fmt.Fprintf(&b, "   Gres=%s GresUsed=%s\n", gres, gresUsed)
	fmt.Fprintf(&b, "   NodeAddr=%s NodeHostName=%s\n", n.Name, n.Name)
	fmt.Fprintf(&b, "   OS=%s\n", n.OS)
	fmt.Fprintf(&b, "   RealMemory=%d AllocMem=%d FreeMem=%d\n", n.MemMB, n.Alloc.MemMB, n.MemMB-n.Alloc.MemMB)
	fmt.Fprintf(&b, "   State=%s Partitions=%s\n", state, strings.Join(n.Partitions, ","))
	fmt.Fprintf(&b, "   BootTime=%s LastBusyTime=%s\n", FormatTime(n.BootTime), FormatTime(n.LastBusy))
	if n.StateReason != "" {
		fmt.Fprintf(&b, "   Reason=%s\n", n.StateReason)
	}
	_ = now
	return b.String()
}

func scontrolShowJob(cl *slurm.Cluster, args []string) (string, error) {
	if len(args) == 0 {
		return "", fmt.Errorf("slurmcli: scontrol show job: missing job id")
	}
	n, err := strconv.ParseInt(args[0], 10, 64)
	if err != nil {
		return "", fmt.Errorf("slurmcli: bad job id %q", args[0])
	}
	j := cl.Ctl.Job(slurm.JobID(n))
	if j == nil {
		// Fall back to accounting for jobs that aged out of the controller,
		// mirroring how the dashboard combines scontrol and sacct.
		j = cl.DBD.Job(slurm.JobID(n))
	}
	if j == nil {
		return "", fmt.Errorf("slurmcli: Invalid job id specified: %d", n)
	}
	now := cl.Ctl.Now()
	var b strings.Builder
	fmt.Fprintf(&b, "JobId=%d JobName=%s\n", j.ID, j.Name)
	fmt.Fprintf(&b, "   UserId=%s Account=%s QOS=%s\n", j.User, j.Account, j.QOS)
	fmt.Fprintf(&b, "   JobState=%s Reason=%s ExitCode=%d:0\n", j.State, j.Reason, j.ExitCode)
	fmt.Fprintf(&b, "   SubmitTime=%s EligibleTime=%s\n", FormatTime(j.SubmitTime), FormatTime(j.EligibleTime))
	fmt.Fprintf(&b, "   StartTime=%s EndTime=%s\n", FormatTime(j.StartTime), FormatTime(j.EndTime))
	fmt.Fprintf(&b, "   RunTime=%s TimeLimit=%s\n", FormatDuration(j.Elapsed(now)), FormatDuration(j.TimeLimit))
	fmt.Fprintf(&b, "   Partition=%s Priority=%d\n", j.Partition, j.Priority)
	nodeList := "(null)"
	if len(j.Nodes) > 0 {
		nodeList = slurm.NodeNameRange(j.Nodes)
	}
	fmt.Fprintf(&b, "   NodeList=%s NumNodes=%d NumCPUs=%d\n", nodeList, j.ReqTRES.Nodes, j.ReqTRES.CPUs)
	fmt.Fprintf(&b, "   ReqTRES=%s AllocTRES=%s\n", j.ReqTRES, j.AllocTRES)
	fmt.Fprintf(&b, "   MinMemoryNode=%s\n", FormatMem(j.ReqTRES.MemMB))
	if j.Constraint != "" {
		fmt.Fprintf(&b, "   Features=%s\n", j.Constraint)
	}
	fmt.Fprintf(&b, "   WorkDir=%s\n", j.WorkDir)
	fmt.Fprintf(&b, "   StdOut=%s\n", j.StdoutPath)
	fmt.Fprintf(&b, "   StdErr=%s\n", j.StderrPath)
	if j.ArrayJobID != 0 {
		fmt.Fprintf(&b, "   ArrayJobId=%d ArrayTaskId=%d\n", j.ArrayJobID, j.ArrayTaskID)
	}
	if j.InteractiveApp != "" {
		fmt.Fprintf(&b, "   Comment=ood:app=%s;session=%s\n", j.InteractiveApp, j.SessionID)
	}
	return b.String(), nil
}

func scontrolShowPartition(cl *slurm.Cluster, args []string) (string, error) {
	parts := cl.Ctl.Partitions()
	var filter string
	if len(args) > 0 {
		filter = args[0]
	}
	var b strings.Builder
	for _, p := range parts {
		if filter != "" && p.Name != filter {
			continue
		}
		limit := "UNLIMITED"
		if p.MaxTime > 0 {
			limit = FormatDuration(p.MaxTime)
		}
		def := "NO"
		if p.Default {
			def = "YES"
		}
		fmt.Fprintf(&b, "PartitionName=%s\n", p.Name)
		fmt.Fprintf(&b, "   State=%s Default=%s PriorityTier=%d\n", p.State, def, p.Priority)
		fmt.Fprintf(&b, "   MaxTime=%s TotalNodes=%d\n", limit, len(p.Nodes))
		fmt.Fprintf(&b, "   Nodes=%s\n", slurm.NodeNameRange(p.Nodes))
		b.WriteByte('\n')
	}
	if b.Len() == 0 && filter != "" {
		return "", fmt.Errorf("slurmcli: Partition %s not found", filter)
	}
	return b.String(), nil
}

// scontrolShowAssoc emulates `scontrol show assoc_mgr` restricted to the
// association records: one line per association with limits and usage.
// Optional filters: account=<name>, user=<name>.
func scontrolShowAssoc(cl *slurm.Cluster, args []string) (string, error) {
	var account, user string
	for _, a := range args {
		if v, ok := strings.CutPrefix(a, "account="); ok {
			account = v
		}
		if v, ok := strings.CutPrefix(a, "user="); ok {
			user = v
		}
	}
	assocs := cl.DBD.Associations()
	var b strings.Builder
	for _, a := range assocs {
		if account != "" && a.Account != account {
			continue
		}
		if user != "" && a.User != user {
			continue
		}
		b.WriteString(assocLine(cl.Name, a))
	}
	return b.String(), nil
}

// assocLine formats one association record of scontrol show assoc.
func assocLine(cluster string, a *slurm.Association) string {
	grpTRES := ""
	if a.GrpCPULimit > 0 {
		grpTRES = fmt.Sprintf("cpu=%d", a.GrpCPULimit)
	}
	return fmt.Sprintf(
		"ClusterName=%s Account=%s UserName=%s GrpTRES=%s GrpTRESMins=gres/gpu=%.0f GPUHoursUsed=%.2f CPUHoursUsed=%.2f\n",
		cluster, a.Account, a.User, grpTRES, a.GrpGPUHourLimit*60, a.GPUHoursUsed, a.CPUTimeUsed)
}

// scontrolShowReservation emulates `scontrol show reservation`: one block
// per maintenance window, using Slurm's MAINT-flagged reservation format.
func scontrolShowReservation(cl *slurm.Cluster) (string, error) {
	windows := cl.Ctl.MaintenanceWindows()
	if len(windows) == 0 {
		return "No reservations in the system\n", nil
	}
	var b strings.Builder
	for _, w := range windows {
		nodes := "ALL"
		count := 0
		if len(w.Nodes) > 0 {
			nodes = slurm.NodeNameRange(w.Nodes)
			count = len(w.Nodes)
		}
		fmt.Fprintf(&b, "ReservationName=%s StartTime=%s EndTime=%s\n",
			w.Name, FormatTime(w.Start), FormatTime(w.End))
		fmt.Fprintf(&b, "   Nodes=%s NodeCnt=%d Flags=MAINT,SPEC_NODES\n", nodes, count)
		if w.Reason != "" {
			fmt.Fprintf(&b, "   Comment=%s\n", w.Reason)
		}
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// ReservationDetail is one parsed `scontrol show reservation` block.
type ReservationDetail struct {
	Name    string
	Start   time.Time
	End     time.Time
	Nodes   string // hostlist expression, or "ALL"
	Comment string
}

// ShowReservations runs `scontrol show reservation` and parses the blocks.
func ShowReservations(r Runner) ([]ReservationDetail, error) {
	out, err := r.Run("scontrol", "show", "reservation")
	if err != nil {
		return nil, err
	}
	if strings.HasPrefix(out, "No reservations") {
		return nil, nil
	}
	var res []ReservationDetail
	for _, blk := range ParseScontrolBlocks(out) {
		d := ReservationDetail{
			Name:    blk["ReservationName"],
			Nodes:   blk["Nodes"],
			Comment: blk["Comment"],
		}
		if d.Name == "" {
			continue
		}
		if d.Start, err = ParseTime(blk["StartTime"]); err != nil {
			return nil, err
		}
		if d.End, err = ParseTime(blk["EndTime"]); err != nil {
			return nil, err
		}
		res = append(res, d)
	}
	return res, nil
}

// runScancel emulates scancel: `scancel <jobid> [user=<name>]`.
func runScancel(cl *slurm.Cluster, args []string) (string, error) {
	if len(args) == 0 {
		return "", fmt.Errorf("slurmcli: scancel: missing job id")
	}
	id, user, err := jobIDAndUser(args)
	if err != nil {
		return "", err
	}
	return "", cl.Ctl.Cancel(id, user)
}

// --- Typed scontrol wrappers ----------------------------------------------

// freeTextKeys are scontrol fields whose values may contain spaces; when
// one starts a line, the rest of the line is its value (matching how real
// scontrol prints Reason=/Comment=/OS= on dedicated lines).
var freeTextKeys = map[string]bool{"Comment": true, "Reason": true, "OS": true}

// ParseScontrolBlocks splits `scontrol show ...` output into one key→value
// map per record. Records are delimited by lines whose first key starts a
// new entity (no leading whitespace).
func ParseScontrolBlocks(out string) []map[string]string {
	var blocks []map[string]string
	var cur map[string]string
	for _, line := range strings.Split(out, "\n") {
		trimmed := strings.TrimSpace(line)
		if trimmed == "" {
			continue
		}
		if line[0] != ' ' && line[0] != '\t' {
			cur = make(map[string]string)
			blocks = append(blocks, cur)
		}
		if cur == nil {
			cur = make(map[string]string)
			blocks = append(blocks, cur)
		}
		// Free-text fields occupy the whole line after their key.
		if k, v, ok := strings.Cut(trimmed, "="); ok && freeTextKeys[k] {
			if _, exists := cur[k]; !exists {
				cur[k] = v
			}
			continue
		}
		for _, pair := range strings.Fields(trimmed) {
			k, v, ok := strings.Cut(pair, "=")
			if !ok {
				continue
			}
			// Only the first "=" splits; values like "ood:app=x;session=y"
			// keep their own equals signs.
			if _, exists := cur[k]; !exists {
				cur[k] = v
			}
		}
	}
	return blocks
}

// NodeDetail is the typed result of `scontrol show node <name>`.
type NodeDetail struct {
	Name       string
	Arch       string
	OS         string
	State      slurm.NodeState
	Partitions []string
	Features   []string
	CPUTotal   int
	CPUAlloc   int
	CPULoad    float64
	MemMB      int64
	AllocMemMB int64
	GPUTotal   int
	GPUAlloc   int
	GPUType    string
	BootTime   time.Time
	LastBusy   time.Time
	Reason     string
}

// ShowNode runs `scontrol show node <name>` and parses the block.
func ShowNode(r Runner, name string) (*NodeDetail, error) {
	out, err := r.Run("scontrol", "show", "node", name)
	if err != nil {
		return nil, err
	}
	blocks := ParseScontrolBlocks(out)
	if len(blocks) == 0 {
		return nil, fmt.Errorf("slurmcli: no node block in output")
	}
	return nodeDetailFromBlock(blocks[0])
}

// ShowAllNodes runs `scontrol show node` and parses every block.
func ShowAllNodes(r Runner) ([]*NodeDetail, error) {
	out, err := r.Run("scontrol", "show", "node")
	if err != nil {
		return nil, err
	}
	blocks := ParseScontrolBlocks(out)
	details := make([]*NodeDetail, 0, len(blocks))
	for _, blk := range blocks {
		d, err := nodeDetailFromBlock(blk)
		if err != nil {
			return nil, err
		}
		details = append(details, d)
	}
	return details, nil
}

func nodeDetailFromBlock(blk map[string]string) (*NodeDetail, error) {
	d := &NodeDetail{
		Name:   blk["NodeName"],
		Arch:   blk["Arch"],
		OS:     blk["OS"],
		State:  slurm.NodeState(blk["State"]),
		Reason: blk["Reason"],
	}
	if d.Name == "" {
		return nil, fmt.Errorf("slurmcli: node block missing NodeName")
	}
	if v := blk["Partitions"]; v != "" {
		d.Partitions = strings.Split(v, ",")
	}
	if v := blk["AvailableFeatures"]; v != "" {
		d.Features = strings.Split(v, ",")
	}
	var err error
	if d.CPUTotal, err = atoiDefault(blk["CPUTot"]); err != nil {
		return nil, err
	}
	if d.CPUAlloc, err = atoiDefault(blk["CPUAlloc"]); err != nil {
		return nil, err
	}
	if v := blk["CPULoad"]; v != "" {
		if d.CPULoad, err = strconv.ParseFloat(v, 64); err != nil {
			return nil, fmt.Errorf("slurmcli: bad CPULoad %q", v)
		}
	}
	if d.MemMB, err = atoi64Default(blk["RealMemory"]); err != nil {
		return nil, err
	}
	if d.AllocMemMB, err = atoi64Default(blk["AllocMem"]); err != nil {
		return nil, err
	}
	if g := blk["Gres"]; g != "" && g != "(null)" {
		d.GPUType, d.GPUTotal = parseGres(g)
	}
	if g := blk["GresUsed"]; g != "" && g != "(null)" {
		_, d.GPUAlloc = parseGres(g)
	}
	if d.BootTime, err = ParseTime(blk["BootTime"]); err != nil {
		return nil, err
	}
	if d.LastBusy, err = ParseTime(blk["LastBusyTime"]); err != nil {
		return nil, err
	}
	return d, nil
}

// parseGres parses "gpu:a100:4" into ("a100", 4). "gpu:4" yields ("", 4).
func parseGres(s string) (string, int) {
	parts := strings.Split(s, ":")
	switch len(parts) {
	case 2:
		n, _ := strconv.Atoi(parts[1])
		return "", n
	case 3:
		n, _ := strconv.Atoi(parts[2])
		return parts[1], n
	}
	return "", 0
}

func atoiDefault(s string) (int, error) {
	if s == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("slurmcli: bad integer %q", s)
	}
	return n, nil
}

func atoi64Default(s string) (int64, error) {
	if s == "" {
		return 0, nil
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("slurmcli: bad integer %q", s)
	}
	return n, nil
}

// JobDetail is the typed result of `scontrol show job <id>`.
type JobDetail struct {
	ID           slurm.JobID
	Name         string
	User         string
	Account      string
	QOS          string
	State        slurm.JobState
	Reason       slurm.PendingReason
	ExitCode     int
	SubmitTime   time.Time
	EligibleTime time.Time
	StartTime    time.Time
	EndTime      time.Time
	RunTime      time.Duration
	TimeLimit    time.Duration
	Partition    string
	Priority     int64
	NodeList     string
	NumNodes     int
	NumCPUs      int
	ReqTRES      slurm.TRES
	AllocTRES    slurm.TRES
	MemMB        int64
	Constraint   string // requested node features (sbatch --constraint)
	WorkDir      string
	StdoutPath   string
	StderrPath   string
	ArrayJobID   slurm.JobID
	ArrayTaskID  int
	Comment      string
}

// SessionInfo extracts OOD app/session metadata from the comment field.
func (d *JobDetail) SessionInfo() (app, session string, ok bool) {
	row := SacctRow{Comment: d.Comment}
	return row.SessionInfo()
}

// ShowJob runs `scontrol show job <id>` and parses the block.
func ShowJob(r Runner, id slurm.JobID) (*JobDetail, error) {
	out, err := r.Run("scontrol", "show", "job", strconv.FormatInt(int64(id), 10))
	if err != nil {
		return nil, err
	}
	blocks := ParseScontrolBlocks(out)
	if len(blocks) == 0 {
		return nil, fmt.Errorf("slurmcli: no job block in output")
	}
	blk := blocks[0]
	d := &JobDetail{
		Name:       blk["JobName"],
		User:       blk["UserId"],
		Account:    blk["Account"],
		QOS:        blk["QOS"],
		State:      slurm.JobState(blk["JobState"]),
		Reason:     slurm.PendingReason(blk["Reason"]),
		Partition:  blk["Partition"],
		WorkDir:    blk["WorkDir"],
		StdoutPath: blk["StdOut"],
		StderrPath: blk["StdErr"],
		Comment:    blk["Comment"],
	}
	n, err := atoi64Default(blk["JobId"])
	if err != nil {
		return nil, err
	}
	d.ID = slurm.JobID(n)
	codeStr, _, _ := strings.Cut(blk["ExitCode"], ":")
	if d.ExitCode, err = atoiDefault(codeStr); err != nil {
		return nil, err
	}
	if d.SubmitTime, err = ParseTime(blk["SubmitTime"]); err != nil {
		return nil, err
	}
	if d.EligibleTime, err = ParseTime(blk["EligibleTime"]); err != nil {
		return nil, err
	}
	if d.StartTime, err = ParseTime(blk["StartTime"]); err != nil {
		return nil, err
	}
	if d.EndTime, err = ParseTime(blk["EndTime"]); err != nil {
		return nil, err
	}
	if d.RunTime, err = ParseDuration(blk["RunTime"]); err != nil {
		return nil, err
	}
	if d.TimeLimit, err = ParseDuration(blk["TimeLimit"]); err != nil {
		return nil, err
	}
	if d.Priority, err = atoi64Default(blk["Priority"]); err != nil {
		return nil, err
	}
	d.NodeList = blk["NodeList"]
	if d.NodeList == "(null)" {
		d.NodeList = ""
	}
	d.Constraint = blk["Features"]
	if d.NumNodes, err = atoiDefault(blk["NumNodes"]); err != nil {
		return nil, err
	}
	if d.NumCPUs, err = atoiDefault(blk["NumCPUs"]); err != nil {
		return nil, err
	}
	if d.ReqTRES, err = slurm.ParseTRES(blk["ReqTRES"]); err != nil {
		return nil, err
	}
	if d.AllocTRES, err = slurm.ParseTRES(blk["AllocTRES"]); err != nil {
		return nil, err
	}
	if d.MemMB, err = ParseMem(blk["MinMemoryNode"]); err != nil {
		return nil, err
	}
	if v := blk["ArrayJobId"]; v != "" {
		n, err := atoi64Default(v)
		if err != nil {
			return nil, err
		}
		d.ArrayJobID = slurm.JobID(n)
		if d.ArrayTaskID, err = atoiDefault(blk["ArrayTaskId"]); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// AssocDetail is one parsed `scontrol show assoc` record.
type AssocDetail struct {
	Cluster      string
	Account      string
	User         string
	GrpCPULimit  int
	GPUHourLimit float64
	GPUHoursUsed float64
	CPUHoursUsed float64
}

// ShowAssocs runs `scontrol show assoc` with optional account/user filters.
func ShowAssocs(r Runner, account, user string) ([]AssocDetail, error) {
	args := []string{"show", "assoc"}
	if account != "" {
		args = append(args, "account="+account)
	}
	if user != "" {
		args = append(args, "user="+user)
	}
	out, err := r.Run("scontrol", args...)
	if err != nil {
		return nil, err
	}
	return parseAssocs(out)
}

// parseAssocs parses scontrol show assoc output: one record per line of
// Key=Value pairs.
func parseAssocs(out string) ([]AssocDetail, error) {
	var assocs []AssocDetail
	for _, line := range strings.Split(out, "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		blk := make(map[string]string)
		for _, pair := range strings.Fields(line) {
			k, v, ok := strings.Cut(pair, "=")
			if ok {
				blk[k] = v
			}
		}
		a := AssocDetail{
			Cluster: blk["ClusterName"],
			Account: blk["Account"],
			User:    blk["UserName"],
		}
		if g := blk["GrpTRES"]; g != "" {
			tr, err := slurm.ParseTRES(g)
			if err != nil {
				return nil, err
			}
			a.GrpCPULimit = tr.CPUs
		}
		if v := blk["GrpTRESMins"]; v != "" {
			if _, mins, ok := strings.Cut(v, "gres/gpu="); ok {
				f, err := strconv.ParseFloat(mins, 64)
				if err != nil {
					return nil, fmt.Errorf("slurmcli: bad GrpTRESMins %q", v)
				}
				a.GPUHourLimit = f / 60
			}
		}
		var err error
		if a.GPUHoursUsed, err = parseFloatDefault(blk["GPUHoursUsed"]); err != nil {
			return nil, err
		}
		if a.CPUHoursUsed, err = parseFloatDefault(blk["CPUHoursUsed"]); err != nil {
			return nil, err
		}
		assocs = append(assocs, a)
	}
	return assocs, nil
}

func parseFloatDefault(s string) (float64, error) {
	if s == "" {
		return 0, nil
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("slurmcli: bad float %q", s)
	}
	return f, nil
}

// Scancel cancels a job through the Runner as the given user.
func Scancel(r Runner, id slurm.JobID, user string) error {
	_, err := r.Run("scancel", strconv.FormatInt(int64(id), 10), "user="+user)
	return err
}
