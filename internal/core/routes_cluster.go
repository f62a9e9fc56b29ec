package core

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"ooddash/internal/slurm"
	"ooddash/internal/slurmcli"
)

// nodeStateColor maps effective node states to the grid-view colors the
// paper specifies (§6): green in use, faded green idle, yellow drained,
// orange maintenance, red offline.
func nodeStateColor(state slurm.NodeState) string {
	switch state {
	case slurm.NodeAllocated, slurm.NodeMixed:
		return "green"
	case slurm.NodeIdle:
		return "faded-green"
	case slurm.NodeDrained, slurm.NodeDraining:
		return "yellow"
	case slurm.NodeMaint:
		return "orange"
	case slurm.NodeDown:
		return "red"
	case slurm.NodePoweredDown, slurm.NodePoweringUp, slurm.NodeReboot:
		// Energy-saving and reboot cycles: intentionally offline, not faulty.
		return "gray"
	default:
		return "gray"
	}
}

// NodeCell is one node in the Cluster Status app: enough for a grid cell
// (name + color), the hover tooltip (usage numbers), and a list-view row.
type NodeCell struct {
	Name        string   `json:"name"`
	State       string   `json:"state"`
	Color       string   `json:"color"`
	Partitions  []string `json:"partitions"`
	CPUsTotal   int      `json:"cpus_total"`
	CPUsAlloc   int      `json:"cpus_alloc"`
	CPULoad     float64  `json:"cpu_load"`
	MemMB       int64    `json:"mem_mb"`
	AllocMemMB  int64    `json:"alloc_mem_mb"`
	GPUsTotal   int      `json:"gpus_total,omitempty"`
	GPUsAlloc   int      `json:"gpus_alloc,omitempty"`
	OverviewURL string   `json:"overview_url"`
}

// ClusterStatusResponse is the Cluster Status API payload; the same data
// backs the grid and list views.
type ClusterStatusResponse struct {
	Cluster string     `json:"cluster"`
	Nodes   []NodeCell `json:"nodes"`
	// StateCounts summarizes the grid's color distribution.
	StateCounts map[string]int `json:"state_counts"`
	Total       int            `json:"total"`
}

// fetchAllNodes loads and caches the full node table.
func (s *Server) fetchAllNodes(r *http.Request) ([]*slurmcli.NodeDetail, fetchMeta, error) {
	v, meta, err := s.fetchVia(r, srcCtld, "cluster_nodes", s.cfg.TTLs.ClusterNodes, func(ctx context.Context) (any, error) {
		return s.ctldBk.ShowAllNodes(ctx)
	})
	if err != nil {
		return nil, fetchMeta{}, err
	}
	return v.([]*slurmcli.NodeDetail), meta, nil
}

func nodeCellFromDetail(d *slurmcli.NodeDetail) NodeCell {
	return NodeCell{
		Name:        d.Name,
		State:       string(d.State),
		Color:       nodeStateColor(d.State),
		Partitions:  d.Partitions,
		CPUsTotal:   d.CPUTotal,
		CPUsAlloc:   d.CPUAlloc,
		CPULoad:     d.CPULoad,
		MemMB:       d.MemMB,
		AllocMemMB:  d.AllocMemMB,
		GPUsTotal:   d.GPUTotal,
		GPUsAlloc:   d.GPUAlloc,
		OverviewURL: "/node/" + d.Name,
	}
}

// matchesSearch implements the list view's keyword filter: node name,
// state, or partition (§6).
func (c *NodeCell) matchesSearch(q string) bool {
	if q == "" {
		return true
	}
	q = strings.ToLower(q)
	if strings.Contains(strings.ToLower(c.Name), q) {
		return true
	}
	if strings.Contains(strings.ToLower(c.State), q) {
		return true
	}
	for _, p := range c.Partitions {
		if strings.Contains(strings.ToLower(p), q) {
			return true
		}
	}
	return false
}

func (s *Server) handleClusterStatus(w http.ResponseWriter, r *http.Request) {
	if _, err := s.currentUser(r); err != nil {
		writeError(w, err)
		return
	}
	details, meta, err := s.fetchAllNodes(r)
	if err != nil {
		writeFetchError(w, err)
		return
	}
	s.serveRendered(w, r, meta, "", func() (any, error) {
		q := r.URL.Query()
		search := q.Get("search")
		sortKey := q.Get("sort")
		descending := q.Get("order") == "desc"

		resp := ClusterStatusResponse{
			Cluster:     s.cfg.ClusterName,
			StateCounts: make(map[string]int),
		}
		for _, d := range details {
			cell := nodeCellFromDetail(d)
			resp.StateCounts[cell.Color]++
			resp.Total++
			if !cell.matchesSearch(search) {
				continue
			}
			resp.Nodes = append(resp.Nodes, cell)
		}
		if err := sortNodeCells(resp.Nodes, sortKey, descending); err != nil {
			return nil, err
		}
		return resp, nil
	})
}

// sortNodeCells orders the list view by any sortable column (§6).
func sortNodeCells(cells []NodeCell, key string, desc bool) error {
	var less func(a, b *NodeCell) bool
	switch key {
	case "", "name":
		less = func(a, b *NodeCell) bool { return a.Name < b.Name }
	case "state":
		less = func(a, b *NodeCell) bool {
			if a.State != b.State {
				return a.State < b.State
			}
			return a.Name < b.Name
		}
	case "cpu_load":
		less = func(a, b *NodeCell) bool {
			if a.CPULoad != b.CPULoad {
				return a.CPULoad < b.CPULoad
			}
			return a.Name < b.Name
		}
	case "cpu_alloc":
		less = func(a, b *NodeCell) bool {
			if a.CPUsAlloc != b.CPUsAlloc {
				return a.CPUsAlloc < b.CPUsAlloc
			}
			return a.Name < b.Name
		}
	case "mem":
		less = func(a, b *NodeCell) bool {
			if a.AllocMemMB != b.AllocMemMB {
				return a.AllocMemMB < b.AllocMemMB
			}
			return a.Name < b.Name
		}
	default:
		return fmt.Errorf("%w: unknown sort key %q", errBadRequest, key)
	}
	sort.SliceStable(cells, func(i, j int) bool {
		if desc {
			return less(&cells[j], &cells[i])
		}
		return less(&cells[i], &cells[j])
	})
	return nil
}

// --- Node Overview (§6.1) ----------------------------------------------------

// NodeOverviewResponse is the Node Overview API payload: the status and
// resource-usage cards plus the node-details tab fields.
type NodeOverviewResponse struct {
	Name     string    `json:"name"`
	State    string    `json:"state"`
	Color    string    `json:"color"`
	Reason   string    `json:"reason,omitempty"`
	LastBusy time.Time `json:"last_busy"`
	BootTime time.Time `json:"boot_time"`

	CPUsTotal  int     `json:"cpus_total"`
	CPUsAlloc  int     `json:"cpus_alloc"`
	CPUPercent float64 `json:"cpu_percent"`
	CPULoad    float64 `json:"cpu_load"`
	MemMB      int64   `json:"mem_mb"`
	AllocMemMB int64   `json:"alloc_mem_mb"`
	MemPercent float64 `json:"mem_percent"`
	GPUsTotal  int     `json:"gpus_total,omitempty"`
	GPUsAlloc  int     `json:"gpus_alloc,omitempty"`
	GPUPercent float64 `json:"gpu_percent,omitempty"`
	GPUType    string  `json:"gpu_type,omitempty"`

	// Details tab: configuration pulled from scontrol show node.
	OS         string   `json:"os"`
	Arch       string   `json:"arch"`
	Features   []string `json:"features"`
	Partitions []string `json:"partitions"`
}

func (s *Server) handleNodeOverview(w http.ResponseWriter, r *http.Request) {
	if _, err := s.currentUser(r); err != nil {
		writeError(w, err)
		return
	}
	name := r.PathValue("name")
	key := "node:" + name
	v, meta, err := s.fetchVia(r, srcCtld, key, s.cfg.TTLs.NodeDetail, func(ctx context.Context) (any, error) {
		return s.ctldBk.ShowNode(ctx, name)
	})
	if err != nil {
		// An unreachable controller is a 503; only a healthy "no such
		// node" answer maps to 404.
		if isUnavailable(err) {
			writeFetchError(w, err)
		} else {
			writeError(w, fmt.Errorf("%w: node %s: %v", errNotFound, name, err))
		}
		return
	}
	s.serveRendered(w, r, meta, "", func() (any, error) {
		d := v.(*slurmcli.NodeDetail)
		resp := NodeOverviewResponse{
			Name:     d.Name,
			State:    string(d.State),
			Color:    nodeStateColor(d.State),
			Reason:   d.Reason,
			LastBusy: d.LastBusy,
			BootTime: d.BootTime,

			CPUsTotal:  d.CPUTotal,
			CPUsAlloc:  d.CPUAlloc,
			CPULoad:    d.CPULoad,
			MemMB:      d.MemMB,
			AllocMemMB: d.AllocMemMB,
			GPUsTotal:  d.GPUTotal,
			GPUsAlloc:  d.GPUAlloc,
			GPUType:    d.GPUType,

			OS: d.OS, Arch: d.Arch,
			Features: d.Features, Partitions: d.Partitions,
		}
		if d.CPUTotal > 0 {
			resp.CPUPercent = 100 * float64(d.CPUAlloc) / float64(d.CPUTotal)
		}
		if d.MemMB > 0 {
			resp.MemPercent = 100 * float64(d.AllocMemMB) / float64(d.MemMB)
		}
		if d.GPUTotal > 0 {
			resp.GPUPercent = 100 * float64(d.GPUAlloc) / float64(d.GPUTotal)
		}
		return resp, nil
	})
}

// NodeJobRow is one row in the Node Overview running-jobs tab.
type NodeJobRow struct {
	JobID       string `json:"job_id"`
	Name        string `json:"name"`
	User        string `json:"user"`
	Partition   string `json:"partition"`
	State       string `json:"state"`
	CPUs        int    `json:"cpus"`
	MemMB       int64  `json:"mem_mb"`
	ElapsedSecs int64  `json:"elapsed_seconds"`
	OverviewURL string `json:"overview_url"`
}

// NodeJobsResponse lists the jobs running on one node.
type NodeJobsResponse struct {
	Node string       `json:"node"`
	Jobs []NodeJobRow `json:"jobs"`
}

func (s *Server) handleNodeJobs(w http.ResponseWriter, r *http.Request) {
	if _, err := s.currentUser(r); err != nil {
		writeError(w, err)
		return
	}
	name := r.PathValue("name")
	// The live-queue fill serves every node's running-jobs tab: its RUNNING
	// rows on this node, what squeue -t R lists for it.
	queue, meta, err := s.fetchLiveQueue(r)
	if err != nil {
		writeFetchError(w, err)
		return
	}
	s.serveRendered(w, r, meta, "", func() (any, error) {
		resp := NodeJobsResponse{Node: name}
		for i := range queue {
			e := &queue[i]
			if e.State != slurm.StateRunning {
				continue
			}
			nodes, err := slurm.ExpandNodeRange(e.NodeList)
			if err != nil {
				continue
			}
			onNode := false
			for _, n := range nodes {
				if n == name {
					onNode = true
					break
				}
			}
			if !onNode {
				continue
			}
			resp.Jobs = append(resp.Jobs, NodeJobRow{
				JobID:       e.JobID,
				Name:        e.Name,
				User:        e.User,
				Partition:   e.Partition,
				State:       string(e.State),
				CPUs:        e.CPUs,
				MemMB:       e.MemMB,
				ElapsedSecs: int64(e.Elapsed / time.Second),
				OverviewURL: "/job/" + e.JobID,
			})
		}
		return resp, nil
	})
}
