package core

import (
	"html/template"
	"log"
	"net/http"
	"time"
)

// The page templates reproduce the paper's frontend structure (§2.3): every
// page renders immediately with loading placeholders, and each widget is a
// self-contained block that fetches its own API route with client-side
// caching — so a slow data source shows a spinner in one card instead of
// blocking the whole dashboard.

// baseTemplate is the shared layout (the ERB layout equivalent).
const baseTemplate = `<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>{{.Title}} — {{.Cluster}} Dashboard</title>
<link rel="stylesheet" href="/assets/dashboard.css">
</head>
<body data-user="{{.User}}">
<nav class="navbar">
  <a class="brand" href="/">{{.Cluster}} OnDemand</a>
  <a href="/myjobs">My Jobs</a>
  <a href="/jobperf">Job Performance</a>
  <a href="/clusterstatus">Cluster Status</a>
  <a href="/insights">Insights</a>
{{if .IsAdmin}}  <a href="/admin">Traces</a>
  <a href="/admin/slo">SLO</a>
{{end}}  <span class="spacer"></span>
  <span class="user">{{.User}}</span>
</nav>
<main>
{{template "content" .}}
</main>
<script src="/assets/cache.js"></script>
<script src="/assets/widgets.js"></script>
</body>
</html>`

// pageTemplates maps page names to their content blocks. Each widget div
// carries its API route, client-cache TTL and push name as data attributes
// consumed by widgets.js; this is the template/API-route pairing of §2.3.
// The TTL is the serving widget's configured one, so the browser cache
// (§2.4's second layer) ages its copy on the same cadence as the server
// cache. The push name is the widget's name when the widget table gives it
// a push source, and empty otherwise: widgets.js subscribes exactly the
// sections that carry one.
var pageTemplates = map[string]string{
	"home": `{{define "content"}}
<h1 class="sr-only">Dashboard homepage</h1>
<div class="widget-grid">
  <section class="widget" id="announcements" data-api="/api/announcements" data-ttl="{{index .TTL "announcements"}}" data-push="{{index .Push "announcements"}}">
    <h2>Announcements <a class="more" href="/news">All news</a></h2>
    <div class="widget-body loading" role="status">Loading announcements…</div>
  </section>
  <section class="widget" id="recent-jobs" data-api="/api/recent_jobs" data-ttl="{{index .TTL "recent_jobs"}}" data-push="{{index .Push "recent_jobs"}}">
    <h2>Recent Jobs <a class="more" href="/myjobs">All jobs</a></h2>
    <div class="widget-body loading" role="status">Loading recent jobs…</div>
  </section>
  <section class="widget" id="system-status" data-api="/api/system_status" data-ttl="{{index .TTL "system_status"}}" data-push="{{index .Push "system_status"}}">
    <h2>System Status <a class="more" href="/clusterstatus">Details</a></h2>
    <div class="widget-body loading" role="status">Loading system status…</div>
  </section>
  <section class="widget" id="accounts" data-api="/api/accounts" data-ttl="{{index .TTL "accounts"}}" data-push="{{index .Push "accounts"}}">
    <h2>Accounts <a class="more" href="{{.UserGuideURL}}">User guide</a></h2>
    <div class="widget-body loading" role="status">Loading accounts…</div>
  </section>
  <section class="widget" id="storage" data-api="/api/storage" data-ttl="{{index .TTL "storage"}}" data-push="{{index .Push "storage"}}">
    <h2>Storage</h2>
    <div class="widget-body loading" role="status">Loading storage…</div>
  </section>
</div>
{{end}}`,

	"myjobs": `{{define "content"}}
<h1>My Jobs</h1>
<div class="controls">
  <select id="range" aria-label="Time range">
    <option value="24h">Last 24 hours</option>
    <option value="7d" selected>Last 7 days</option>
    <option value="30d">Last 30 days</option>
    <option value="90d">Last 90 days</option>
    <option value="all">All time</option>
    <option value="custom">Custom…</option>
  </select>
  <button id="toggle-efficiency">Toggle Efficiency Data</button>
</div>
<section class="widget" id="myjobs-charts" data-api="/api/myjobs/charts" data-ttl="{{index .TTL "my_jobs_charts"}}" data-push="{{index .Push "my_jobs_charts"}}">
  <h2>Job distribution</h2>
  <div class="widget-body loading" role="status">Loading charts…</div>
</section>
<section class="widget" id="myjobs-table" data-api="/api/myjobs" data-ttl="{{index .TTL "my_jobs"}}" data-push="{{index .Push "my_jobs"}}">
  <h2>Jobs</h2>
  <div class="widget-body loading" role="status">Loading jobs…</div>
</section>
{{end}}`,

	"jobperf": `{{define "content"}}
<h1>Job Performance Metrics</h1>
<section class="widget" id="jobperf" data-api="/api/jobperf" data-ttl="{{index .TTL "job_perf"}}" data-push="{{index .Push "job_perf"}}">
  <div class="widget-body loading" role="status">Loading metrics…</div>
</section>
{{end}}`,

	"clusterstatus": `{{define "content"}}
<h1>Cluster Status</h1>
<div class="controls">
  <button id="view-grid" aria-pressed="true">Grid view</button>
  <button id="view-list" aria-pressed="false">List view</button>
  <input id="search" type="search" placeholder="Filter nodes…" aria-label="Filter nodes">
</div>
<section class="widget" id="cluster-status" data-api="/api/cluster_status" data-ttl="{{index .TTL "cluster_status"}}" data-push="{{index .Push "cluster_status"}}">
  <div class="widget-body loading" role="status">Loading nodes…</div>
</section>
{{end}}`,

	"node": `{{define "content"}}
<h1>Node {{.Subject}}</h1>
<section class="widget" id="node-overview" data-api="/api/node/{{.Subject}}" data-ttl="{{index .TTL "node_overview"}}" data-push="{{index .Push "node_overview"}}">
  <div class="widget-body loading" role="status">Loading node…</div>
</section>
<section class="widget" id="node-jobs" data-api="/api/node/{{.Subject}}/jobs" data-ttl="{{index .TTL "node_jobs"}}" data-push="{{index .Push "node_jobs"}}">
  <h2>Running jobs</h2>
  <div class="widget-body loading" role="status">Loading jobs…</div>
</section>
{{end}}`,

	"job": `{{define "content"}}
<h1>Job {{.Subject}}</h1>
<section class="widget" id="job-overview" data-api="/api/job/{{.Subject}}" data-ttl="{{index .TTL "job_overview"}}" data-push="{{index .Push "job_overview"}}">
  <div class="widget-body loading" role="status">Loading job…</div>
</section>
<section class="widget tabs" id="job-logs"
         data-api="/api/job/{{.Subject}}/logs" data-ttl="{{index .TTL "job_logs"}}" data-push="{{index .Push "job_logs"}}">
  <h2>Output</h2>
  <div class="widget-body loading" role="status">Loading logs…</div>
</section>
{{end}}`,

	"insights": `{{define "content"}}
<h1>Job Insights</h1>
<p>Automated analysis of your recent jobs with recommendations.</p>
<section class="widget" id="insights" data-api="/api/insights?range=30d" data-ttl="{{index .TTL "insights"}}" data-push="{{index .Push "insights"}}">
  <div class="widget-body loading" role="status">Analyzing your jobs…</div>
</section>
{{end}}`,

	"news": `{{define "content"}}
<h1>All News</h1>
<section class="widget" id="all-news" data-api="/api/announcements" data-ttl="{{index .TTL "announcements"}}" data-push="{{index .Push "announcements"}}">
  <div class="widget-body loading" role="status">Loading news…</div>
</section>
{{end}}`,

	// The admin traces page is staff-only (pageRoutes marks it): a
	// filterable listing of the tail-sampled trace store and a per-trace
	// waterfall. Its widget sections are driven by traces.js rather than
	// widgets.js — trace payloads are admin-scoped and must not land in the
	// shared IndexedDB client cache.
	"admin": `{{define "content"}}
<h1>Request Traces</h1>
<div class="controls">
  <input id="f-widget" type="search" placeholder="Widget…" aria-label="Filter by widget">
  <input id="f-minms" type="number" min="0" placeholder="Min ms" aria-label="Minimum duration in milliseconds">
  <label><input id="f-degraded" type="checkbox"> Degraded/error only</label>
  <button id="f-refresh">Refresh</button>
</div>
<section class="widget" id="trace-list">
  <h2>Retained traces</h2>
  <div class="widget-body loading" role="status">Loading traces…</div>
</section>
<section class="widget" id="trace-detail">
  <h2>Waterfall</h2>
  <div class="widget-body" role="status">Select a trace above.</div>
</section>
<script src="/assets/traces.js"></script>
{{end}}`,

	// The admin SLO page is staff-only like /admin: each objective's error
	// budget (spent/remaining/exhaustion ETA), every burn-rate rule's live
	// state, and the recent alert transition log. Driven by slo.js against
	// /api/admin/slo — admin-scoped, never cached client-side.
	"slo": `{{define "content"}}
<h1>Service Objectives</h1>
<div class="controls">
  <button id="slo-refresh">Refresh</button>
  <span id="slo-asof" role="status"></span>
</div>
<section class="widget" id="slo-budgets">
  <h2>Error budgets</h2>
  <div class="widget-body loading" role="status">Loading objectives…</div>
</section>
<section class="widget" id="slo-alerts">
  <h2>Burn-rate alerts</h2>
  <div class="widget-body loading" role="status">Loading alerts…</div>
</section>
<section class="widget" id="slo-transitions">
  <h2>Recent transitions</h2>
  <div class="widget-body" role="status">None yet.</div>
</section>
<script src="/assets/slo.js"></script>
{{end}}`,
}

// pages holds the parsed template set, one entry per page.
var pages = func() map[string]*template.Template {
	out := make(map[string]*template.Template, len(pageTemplates))
	for name, content := range pageTemplates {
		t := template.Must(template.New("base").Parse(baseTemplate))
		template.Must(t.Parse(content))
		out[name] = t
	}
	return out
}()

// pageData is what every page template receives.
type pageData struct {
	Title        string
	Cluster      string
	User         string
	UserGuideURL string
	// Subject is the page's path parameter (node name or job ID).
	Subject string
	// IsAdmin gates the staff-only navigation entries.
	IsAdmin bool
	// TTL maps widget names to their TTLs in whole seconds (data-ttl).
	TTL map[string]int64
	// Push maps each push widget's name to itself (data-push); widgets
	// without a push source are absent and render empty.
	Push map[string]string
}

// pageRoutes are the HTML pages: the route, its template and title, the
// path value the page is about, and whether only staff may open it.
var pageRoutes = []struct {
	route, page, title, subject string
	staff                       bool
}{
	{"GET /{$}", "home", "Home", "", false},
	{"GET /myjobs", "myjobs", "My Jobs", "", false},
	{"GET /jobperf", "jobperf", "Job Performance Metrics", "", false},
	{"GET /clusterstatus", "clusterstatus", "Cluster Status", "", false},
	{"GET /node/{name}", "node", "Node Overview", "name", false},
	{"GET /job/{id}", "job", "Job Overview", "id", false},
	{"GET /news", "news", "All News", "", false},
	{"GET /insights", "insights", "Job Insights", "", false},
	{"GET /admin", "admin", "Request Traces", "", true},
	{"GET /admin/slo", "slo", "Service Objectives", "", true},
}

// renderPage executes a page template. Every page prints its viewer's name,
// so every response is private to the caller. Authentication failures
// render plain-text errors rather than JSON since these are browser
// navigations.
func (s *Server) renderPage(w http.ResponseWriter, r *http.Request, page, title, subject string, staff bool) {
	setPrivateCache(w.Header())
	user, err := s.users.FromRequest(r)
	if err != nil {
		http.Error(w, "authentication required", http.StatusUnauthorized)
		return
	}
	if staff && !user.Admin {
		http.Error(w, "admin access required", http.StatusForbidden)
		return
	}
	t, ok := pages[page]
	if !ok {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	data := pageData{
		Title:        title,
		Cluster:      s.cfg.ClusterName,
		User:         user.Name,
		UserGuideURL: s.cfg.UserGuideURL,
		Subject:      subject,
		IsAdmin:      user.Admin,
		TTL:          s.pageTTLs,
		Push:         s.pagePush,
	}
	if err := t.ExecuteTemplate(w, "base", data); err != nil {
		log.Printf("core: rendering %s: %v", page, err)
	}
}

// registerPages mounts the HTML pages and static assets.
func (s *Server) registerPages(mux *http.ServeMux) {
	s.pageTTLs = make(map[string]int64, len(s.widgets))
	s.pagePush = make(map[string]string)
	for _, w := range s.widgets {
		s.pageTTLs[w.Name] = int64(w.TTL / time.Second)
		if w.push {
			s.pagePush[w.Name] = w.Name
		}
	}
	for _, p := range pageRoutes {
		mux.HandleFunc(p.route, func(w http.ResponseWriter, r *http.Request) {
			subject := ""
			if p.subject != "" {
				subject = r.PathValue(p.subject)
			}
			s.renderPage(w, r, p.page, p.title, subject, p.staff)
		})
	}
	mux.HandleFunc("GET /assets/dashboard.css", serveAsset("text/css", assetCSS))
	mux.HandleFunc("GET /assets/cache.js", serveAsset("application/javascript", assetCacheJS))
	mux.HandleFunc("GET /assets/widgets.js", serveAsset("application/javascript", assetWidgetsJS))
	mux.HandleFunc("GET /assets/traces.js", serveAsset("application/javascript", assetTracesJS))
	mux.HandleFunc("GET /assets/slo.js", serveAsset("application/javascript", assetSLOJS))
}

func serveAsset(contentType, body string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", contentType)
		w.Header().Set("Cache-Control", "public, max-age=3600")
		_, _ = w.Write([]byte(body))
	}
}
