package core

// Static frontend assets, embedded as constants so the dashboard binary is
// self-contained. The JavaScript implements the paper's client-side caching
// (§2.4): every widget reads its last response from IndexedDB for an
// instant first paint, then refreshes from its API route in the background.
// The simulated browser in internal/browser executes the same policy
// natively; these files exist so the served pages are a complete, runnable
// frontend in a real browser too.

const assetCSS = `:root {
  --green: #1a7f37; --faded-green: #9fd3ad; --yellow: #bf8700;
  --orange: #bc4c00; --red: #cf222e; --gray: #6e7781; --blue: #0969da;
}
* { box-sizing: border-box; }
body { font-family: system-ui, sans-serif; margin: 0; color: #1f2328; }
.sr-only { position: absolute; width: 1px; height: 1px; overflow: hidden; clip: rect(0 0 0 0); }
.navbar { display: flex; gap: 1rem; align-items: center; padding: .5rem 1rem;
  background: #24292f; color: #fff; }
.navbar a { color: #fff; text-decoration: none; }
.navbar .brand { font-weight: 700; }
.navbar .spacer { flex: 1; }
main { padding: 1rem; max-width: 1200px; margin: 0 auto; }
.widget-grid { display: grid; grid-template-columns: repeat(auto-fit, minmax(340px, 1fr));
  gap: 1rem; }
.widget { border: 1px solid #d0d7de; border-radius: 6px; padding: .75rem; }
.widget h2 { margin: 0 0 .5rem; font-size: 1rem; display: flex; justify-content: space-between; }
.widget .more { font-size: .8rem; }
.widget-body.loading { color: var(--gray); font-style: italic; }
.progress { background: #eaeef2; border-radius: 4px; height: .6rem; overflow: hidden; }
.progress > span { display: block; height: 100%; }
.progress .green { background: var(--green); }
.progress .yellow { background: var(--yellow); }
.progress .red { background: var(--red); }
.badge { display: inline-block; padding: 0 .4rem; border-radius: 4px; color: #fff;
  font-size: .75rem; }
.badge.red { background: var(--red); } .badge.yellow { background: var(--yellow); }
.badge.gray { background: var(--gray); } .badge.green { background: var(--green); }
.badge.blue { background: var(--blue); } .badge.orange { background: var(--orange); }
.node-grid { display: grid; grid-template-columns: repeat(auto-fill, minmax(54px, 1fr));
  gap: 4px; }
.node-cell { padding: 2px; border-radius: 3px; font-size: .65rem; color: #fff;
  text-align: center; cursor: pointer; }
.node-cell.green { background: var(--green); }
.node-cell.faded-green { background: var(--faded-green); color: #1f2328; }
.node-cell.yellow { background: var(--yellow); }
.node-cell.orange { background: var(--orange); }
.node-cell.red { background: var(--red); }
table { border-collapse: collapse; width: 100%; font-size: .85rem; }
th, td { border-bottom: 1px solid #d0d7de; padding: .3rem .5rem; text-align: left; }
.log-view { background: #0d1117; color: #e6edf3; font-family: monospace;
  max-height: 24rem; overflow-y: scroll; padding: .5rem; }
.log-view .ln { color: var(--gray); user-select: none; margin-right: .75rem; }
.controls { display: flex; gap: .5rem; margin-bottom: 1rem; }
.trace-row { cursor: pointer; }
.trace-row:hover { background: #f6f8fa; }
.waterfall { font-size: .8rem; font-family: monospace; }
.waterfall .span-row { display: flex; align-items: center; gap: .5rem;
  padding: 1px 0; }
.waterfall .span-label { flex: 0 0 18rem; overflow: hidden;
  text-overflow: ellipsis; white-space: nowrap; }
.waterfall .span-track { flex: 1; position: relative; height: .9rem;
  background: #f6f8fa; border-radius: 2px; }
.waterfall .span-bar { position: absolute; top: 0; height: 100%;
  border-radius: 2px; min-width: 2px; background: var(--blue); }
.waterfall .span-bar.layer-http { background: var(--blue); }
.waterfall .span-bar.layer-push { background: var(--gray); }
.waterfall .span-bar.layer-cache { background: var(--green); }
.waterfall .span-bar.layer-resilience { background: var(--yellow); }
.waterfall .span-bar.layer-slurmcli { background: var(--orange); }
.waterfall .span-bar.layer-slurmctld, .waterfall .span-bar.layer-slurmdbd,
.waterfall .span-bar.layer-daemon { background: var(--red); }
.waterfall .span-dur { flex: 0 0 6rem; text-align: right; color: var(--gray); }
.budget-track { display: inline-block; width: 8rem; height: .7rem;
  background: #f6f8fa; border-radius: 2px; vertical-align: middle; }
.budget-spent { display: block; height: 100%; border-radius: 2px;
  background: var(--orange); }
tr.slo-firing td { background: #fff1f0; }
tr.slo-pending td { background: #fffbe6; }
`

// assetCacheJS is the IndexedDB helper (§2.4): get/put JSON blobs keyed by
// API route, with a storedAt timestamp so widgets.js can decide freshness.
const assetCacheJS = `"use strict";
const DashCache = (() => {
  const DB_NAME = "ood-dashboard", STORE = "api-responses", VERSION = 1;
  let dbPromise = null;
  function open() {
    if (dbPromise) return dbPromise;
    dbPromise = new Promise((resolve, reject) => {
      const req = indexedDB.open(DB_NAME, VERSION);
      req.onupgradeneeded = () => req.result.createObjectStore(STORE, { keyPath: "key" });
      req.onsuccess = () => resolve(req.result);
      req.onerror = () => reject(req.error);
    });
    return dbPromise;
  }
  async function get(key) {
    const db = await open();
    return new Promise((resolve, reject) => {
      const req = db.transaction(STORE).objectStore(STORE).get(key);
      req.onsuccess = () => resolve(req.result || null);
      req.onerror = () => reject(req.error);
    });
  }
  async function put(key, value, etag) {
    const db = await open();
    return new Promise((resolve, reject) => {
      const tx = db.transaction(STORE, "readwrite");
      tx.objectStore(STORE).put({ key, value, storedAt: Date.now(), etag: etag || "" });
      tx.oncomplete = resolve;
      tx.onerror = () => reject(tx.error);
    });
  }
  return { get, put };
})();
`

// assetWidgetsJS drives every widget: instant paint from the client cache,
// background refresh from the API route (conditional, via the stored ETag),
// live updates over the /api/events SSE stream, graceful per-widget error
// states, and a renderer per widget type (accordion, cards, progress bars,
// grid).
const assetWidgetsJS = `"use strict";
(async function initWidgets() {
  const widgets = document.querySelectorAll("[data-api]");
  const paint = (el, data) => {
    const body = el.querySelector(".widget-body");
    body.classList.remove("loading");
    body.textContent = "";
    body.appendChild(renderWidget(el.id, data));
  };
  for (const el of widgets) {
    const api = el.dataset.api;
    const ttlMs = Number(el.dataset.ttl || "0") * 1000;
    const body = el.querySelector(".widget-body");
    try {
      const cached = await DashCache.get(api);
      if (cached) paint(el, cached.value); // instant paint from IndexedDB
      if (!cached || Date.now() - cached.storedAt > ttlMs) {
        const headers = { Accept: "application/json" };
        if (cached && cached.etag) headers["If-None-Match"] = cached.etag;
        const resp = await fetch(api, { headers });
        if (resp.status === 304 && cached) {
          // Unchanged on the server: re-stamp the cached copy as fresh.
          await DashCache.put(api, cached.value, cached.etag);
        } else {
          if (!resp.ok) throw new Error(api + " returned " + resp.status);
          const fresh = await resp.json();
          await DashCache.put(api, fresh, resp.headers.get("ETag"));
          paint(el, fresh); // refresh in place
        }
      }
    } catch (err) {
      // A failing widget degrades alone; the rest of the page stays up.
      body.classList.remove("loading");
      body.textContent = "This widget is temporarily unavailable (" + err.message + ").";
    }
  }
  openEventStream(widgets, paint);

  // openEventStream subscribes this page's push widgets — the sections the
  // server marked with a data-push name from its widget table — to the live
  // update feed: each event's payload is exactly the widget's API response,
  // so it goes through the same cache-put + repaint as a poll. EventSource
  // reconnects (with Last-Event-ID) on its own; when push is unavailable the
  // stream simply never delivers and the polling policy above still runs on
  // every page load.
  function openEventStream(els, paintFn) {
    if (!window.EventSource) return;
    const byName = {};
    for (const el of els) {
      if (el.dataset.push) byName[el.dataset.push] = el;
    }
    const names = Object.keys(byName);
    if (!names.length) return;
    const es = new EventSource("/api/events?widgets=" + names.join(","));
    names.forEach((name) => {
      es.addEventListener(name, async (ev) => {
        try {
          const data = JSON.parse(ev.data);
          await DashCache.put(byName[name].dataset.api, data);
          paintFn(byName[name], data);
        } catch (err) { /* keep the last painted state */ }
      });
    });
    es.addEventListener("shutdown", () => es.close());
  }

  const h = (tag, cls, text) => {
    const n = document.createElement(tag);
    if (cls) n.className = cls;
    if (text !== undefined) n.textContent = text;
    return n;
  };
  const when = (iso) => iso ? new Date(iso).toLocaleString() : "";
  const bar = (pct, color) => {
    const wrap = h("div", "progress");
    const fill = h("span", color || "green");
    fill.style.width = Math.min(100, Math.max(0, pct)).toFixed(1) + "%";
    wrap.appendChild(fill);
    return wrap;
  };
  const tableOf = (headers, rows) => {
    const t = h("table");
    const tr = h("tr");
    headers.forEach((x) => tr.appendChild(h("th", "", x)));
    t.appendChild(tr);
    rows.forEach((cells) => {
      const r = h("tr");
      cells.forEach((c) => {
        const td = h("td");
        if (c instanceof Node) td.appendChild(c); else td.textContent = c;
        r.appendChild(td);
      });
      t.appendChild(r);
    });
    return t;
  };
  const link = (href, text) => {
    const a = h("a", "", text);
    a.href = href;
    return a;
  };

  function renderWidget(id, data) {
    const box = h("div");
    switch (id) {
      case "announcements":
      case "all-news": {
        (data.announcements || []).forEach((a) => {
          const item = h("details", a.active ? "announcement" : "announcement past");
          const sum = h("summary");
          sum.appendChild(h("span", "badge " + a.color, a.category));
          sum.appendChild(document.createTextNode(" " + a.title + " — " + when(a.posted_at)));
          item.appendChild(sum);
          item.appendChild(h("p", "", a.body));
          box.appendChild(item);
        });
        if (!box.children.length) box.textContent = "No announcements.";
        return box;
      }
      case "recent-jobs": {
        (data.jobs || []).forEach((j) => {
          const card = h("div", "job-card");
          card.appendChild(h("span", "badge " + stateColor(j.state), j.state));
          card.appendChild(document.createTextNode(" #" + j.job_id + " " + j.name +
            " — " + j.time_label + " " + when(j.timestamp)));
          card.title = j.reason_help ? j.reason + ": " + j.reason_help : (j.state_help || "");
          box.appendChild(card);
        });
        if (!box.children.length) box.textContent = "No recent jobs.";
        return box;
      }
      case "system-status": {
        (data.maintenance || []).forEach((m) => {
          box.appendChild(h("p", "maint-notice",
            (m.active ? "MAINTENANCE IN PROGRESS: " : "Upcoming maintenance: ") +
            m.name + " " + when(m.start) + " – " + when(m.end)));
        });
        box.appendChild(tableOf(["partition", "cpu", "", "gpu"],
          (data.partitions || []).map((p) => [
            p.name,
            p.cpu_percent.toFixed(1) + "% (" + p.cpus_in_use + "/" + p.cpus_total + ")",
            bar(p.cpu_percent, p.color),
            p.gpus_total ? p.gpu_percent.toFixed(1) + "%" : "—",
          ])));
        return box;
      }
      case "accounts": {
        box.appendChild(tableOf(["account", "cpus in use", "queued", "limit", "gpu hours", ""],
          (data.accounts || []).map((a) => [
            a.account, String(a.cpus_in_use), String(a.cpus_queued),
            a.grp_cpu_limit ? String(a.grp_cpu_limit) : "∞",
            a.gpu_hours_used.toFixed(1),
            link(a.export_url, "export CSV"),
          ])));
        return box;
      }
      case "storage": {
        box.appendChild(tableOf(["directory", "used", "", "files"],
          (data.directories || []).map((d) => [
            link(d.files_app_url, d.path),
            d.usage_percent.toFixed(1) + "%",
            bar(d.usage_percent, d.color),
            d.file_count.toLocaleString(),
          ])));
        return box;
      }
      case "myjobs-table": {
        box.appendChild(h("p", "", data.matched + " jobs"));
        box.appendChild(tableOf(["job", "name", "user", "state", "wait", "elapsed", "eff"],
          (data.jobs || []).slice(0, 100).map((j) => [
            link(j.overview_url, j.job_id), j.name, j.user,
            h("span", "badge " + stateColor(j.state), j.state),
            fmtSecs(j.wait_seconds), fmtSecs(j.elapsed_seconds),
            j.efficiency && j.efficiency.cpu_percent != null
              ? j.efficiency.cpu_percent.toFixed(0) + "%" : "—",
          ])));
        return box;
      }
      case "cluster-status": {
        const grid = h("div", "node-grid");
        (data.nodes || []).forEach((n) => {
          const cell = h("a", "node-cell " + n.color, n.name);
          cell.href = n.overview_url;
          cell.title = n.state + " cpu " + n.cpus_alloc + "/" + n.cpus_total;
          grid.appendChild(cell);
        });
        box.appendChild(grid);
        return box;
      }
      case "insights": {
        if (!data.findings || !data.findings.length) {
          box.textContent = "No findings — your recent jobs look healthy.";
          return box;
        }
        data.findings.forEach((f) => {
          const card = h("div", "finding");
          card.appendChild(h("span", "badge " +
            (f.severity === "high" ? "red" : f.severity === "medium" ? "yellow" : "gray"),
            f.severity));
          card.appendChild(h("strong", "", " " + f.title));
          card.appendChild(h("p", "", f.detail));
          card.appendChild(h("p", "recommendation", "→ " + f.recommendation));
          box.appendChild(card);
        });
        return box;
      }
      case "jobperf": {
        box.appendChild(tableOf(["metric", "value"], [
          ["jobs", String(data.total_jobs)],
          ["completed", String(data.completed_jobs)],
          ["failed", String(data.failed_jobs)],
          ["avg queue wait", fmtSecs(data.avg_wait_seconds)],
          ["mean duration", fmtSecs(data.mean_duration_seconds)],
          ["total wall time", fmtSecs(data.total_wall_seconds)],
          ["avg cpu efficiency", data.avg_cpu_efficiency.toFixed(1) + "%"],
          ["avg memory efficiency", data.avg_memory_efficiency.toFixed(1) + "%"],
        ]));
        return box;
      }
      default: {
        const pre = h("pre");
        pre.textContent = JSON.stringify(data, null, 2);
        return pre;
      }
    }
  }
  function stateColor(state) {
    switch (state) {
      case "RUNNING": case "COMPLETING": return "blue";
      case "COMPLETED": return "green";
      case "PENDING": case "SUSPENDED": return "yellow";
      case "CANCELLED": return "gray";
      default: return "red";
    }
  }
  function fmtSecs(s) {
    if (s == null) return "—";
    s = Math.round(s);
    const hh = Math.floor(s / 3600), mm = Math.floor((s % 3600) / 60);
    return hh > 0 ? hh + "h" + String(mm).padStart(2, "0") + "m" : mm + "m" + (s % 60) + "s";
  }
})();
`
