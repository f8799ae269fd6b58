#include "eval/report_html.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "obs/json.h"

namespace trmma {

namespace {

void WriteValueRec(obs::JsonWriter& w, const obs::JsonValue& v) {
  switch (v.type()) {
    case obs::JsonValue::Type::kNull:
      w.Null();
      break;
    case obs::JsonValue::Type::kBool:
      w.Bool(v.AsBool());
      break;
    case obs::JsonValue::Type::kNumber:
      w.Number(v.AsNumber());
      break;
    case obs::JsonValue::Type::kString:
      w.String(v.AsString());
      break;
    case obs::JsonValue::Type::kArray:
      w.BeginArray();
      for (const obs::JsonValue& item : v.AsArray()) WriteValueRec(w, item);
      w.EndArray();
      break;
    case obs::JsonValue::Type::kObject:
      w.BeginObject();
      for (const auto& [key, member] : v.AsObject()) {
        w.Key(key);
        WriteValueRec(w, member);
      }
      w.EndObject();
      break;
  }
}

}  // namespace

std::string WriteJsonValue(const obs::JsonValue& value) {
  obs::JsonWriter w;
  WriteValueRec(w, value);
  return w.TakeString();
}

StatusOr<BenchRunSummary> LoadBenchReport(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  StatusOr<obs::JsonValue> parsed = obs::ParseJson(buf.str());
  if (!parsed.ok()) {
    return Status::InvalidArgument(path + ": " + parsed.status().ToString());
  }
  const obs::JsonValue& doc = *parsed;
  if (!doc.is_object() || !doc.Get("name").is_string() ||
      doc.Get("name").AsString().empty()) {
    return Status::InvalidArgument(path + ": not a BENCH report (no name)");
  }
  BenchRunSummary out;
  out.file = std::filesystem::path(path).filename().string();
  out.name = doc.Get("name").AsString();
  out.created_unix =
      static_cast<std::int64_t>(doc.Get("created_unix").AsNumber());
  out.wall_seconds = doc.Get("wall_seconds").AsNumber();
  out.quality = doc.Get("quality");
  out.memory = doc.Get("memory");
  return out;
}

StatusOr<std::vector<BenchRunSummary>> LoadBenchReports(
    const std::string& dir) {
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) return Status::IOError("cannot read directory " + dir);
  std::vector<std::string> paths;
  for (const std::filesystem::directory_entry& entry : it) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.rfind("BENCH_", 0) != 0) continue;
    if (name.size() < 6 || name.substr(name.size() - 5) != ".json") continue;
    paths.push_back(entry.path().string());
  }
  if (paths.empty()) {
    return Status::NotFound("no BENCH_*.json reports in " + dir);
  }
  std::sort(paths.begin(), paths.end());  // deterministic load order
  std::vector<BenchRunSummary> out;
  for (const std::string& path : paths) {
    StatusOr<BenchRunSummary> report = LoadBenchReport(path);
    if (!report.ok()) return report.status();
    out.push_back(std::move(report).value());
  }
  std::sort(out.begin(), out.end(),
            [](const BenchRunSummary& a, const BenchRunSummary& b) {
              if (a.created_unix != b.created_unix) {
                return a.created_unix < b.created_unix;
              }
              if (a.name != b.name) return a.name < b.name;
              return a.file < b.file;
            });
  return out;
}

std::string BuildDashboardPayload(const std::vector<BenchRunSummary>& runs) {
  std::string out = "{\"runs\":[";
  bool first = true;
  for (const BenchRunSummary& run : runs) {
    if (!first) out += ',';
    first = false;
    obs::JsonWriter w;
    w.BeginObject();
    w.Key("file").String(run.file);
    w.Key("name").String(run.name);
    w.Key("created_unix").Int(run.created_unix);
    w.Key("wall_seconds").Number(run.wall_seconds);
    w.EndObject();
    std::string obj = w.TakeString();
    obj.pop_back();
    obj += ",\"quality\":";
    obj += run.quality.is_null() ? "null" : WriteJsonValue(run.quality);
    obj += ",\"memory\":";
    obj += run.memory.is_null() ? "null" : WriteJsonValue(run.memory);
    obj += '}';
    out += obj;
  }
  out += "]}";
  return out;
}

namespace {

// The dashboard shell. Colors are the validated reference data-viz palette
// (categorical slots in fixed order, both modes re-validated against their
// surfaces); identity never rides on color alone — every chart has a legend,
// ≤4-series charts direct-label line ends, and the slice/drift tables are
// the always-available table view.
constexpr const char kDashboardPrefix[] = R"HTML(<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>TRMMA quality dashboard</title>
<style>
:root {
  color-scheme: light;
  --surface-1: #fcfcfb; --page: #f9f9f7;
  --ink-1: #0b0b0b; --ink-2: #52514e; --ink-3: #898781;
  --grid: #e1e0d9; --axis: #c3c2b7; --ring: rgba(11,11,11,0.10);
  --good-text: #006300; --bad-text: #b4231f;
  --s1:#2a78d6; --s2:#eb6834; --s3:#1baf7a; --s4:#eda100;
  --s5:#e87ba4; --s6:#008300; --s7:#4a3aa7; --s8:#e34948;
  --status-good:#0ca30c; --status-warn:#fab219;
  --status-serious:#ec835a; --status-critical:#d03b3b;
}
@media (prefers-color-scheme: dark) {
  :root {
    color-scheme: dark;
    --surface-1: #1a1a19; --page: #0d0d0d;
    --ink-1: #ffffff; --ink-2: #c3c2b7; --ink-3: #898781;
    --grid: #2c2c2a; --axis: #383835; --ring: rgba(255,255,255,0.10);
    --good-text: #0ca30c; --bad-text: #e66767;
    --s1:#3987e5; --s2:#d95926; --s3:#199e70; --s4:#c98500;
    --s5:#d55181; --s6:#008300; --s7:#9085e9; --s8:#e66767;
  }
}
* { box-sizing: border-box; }
body {
  margin: 0; padding: 24px; background: var(--page); color: var(--ink-1);
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
}
h1 { font-size: 20px; margin: 0 0 4px; }
.sub { color: var(--ink-2); margin: 0 0 16px; }
.filters { display: flex; gap: 12px; align-items: center; margin: 0 0 16px; }
.filters label { color: var(--ink-2); }
.filters select {
  font: inherit; color: var(--ink-1); background: var(--surface-1);
  border: 1px solid var(--ring); border-radius: 6px; padding: 4px 8px;
}
.kpis { display: flex; flex-wrap: wrap; gap: 12px; margin: 0 0 16px; }
.tile {
  background: var(--surface-1); border: 1px solid var(--ring);
  border-radius: 10px; padding: 12px 16px; min-width: 170px;
}
.tile .label { color: var(--ink-2); font-size: 12px; }
.tile .value { font-size: 28px; font-weight: 600; }
.tile .delta { font-size: 12px; }
.delta.up { color: var(--good-text); }
.delta.down { color: var(--bad-text); }
.delta.flat { color: var(--ink-3); }
.grid2 { display: grid; grid-template-columns: repeat(auto-fit, minmax(420px, 1fr)); gap: 12px; }
.card {
  background: var(--surface-1); border: 1px solid var(--ring);
  border-radius: 10px; padding: 14px 16px; margin: 0 0 12px;
}
.card h2 { font-size: 14px; margin: 0 0 2px; }
.card .hint { color: var(--ink-3); font-size: 12px; margin: 0 0 8px; }
.legend { display: flex; flex-wrap: wrap; gap: 10px; margin: 6px 0 2px; font-size: 12px; color: var(--ink-2); }
.legend .key { display: inline-block; width: 14px; height: 3px; border-radius: 2px; vertical-align: middle; margin-right: 5px; }
.legend .swatch { display: inline-block; width: 10px; height: 10px; border-radius: 3px; vertical-align: -1px; margin-right: 5px; }
svg { display: block; }
svg text { font: 11px system-ui, -apple-system, "Segoe UI", sans-serif; fill: var(--ink-3); }
svg text.dl { fill: var(--ink-2); font-weight: 600; }
.minis { display: grid; grid-template-columns: repeat(auto-fill, minmax(210px, 1fr)); gap: 12px; }
.mini h3 { font-size: 12px; font-weight: 600; margin: 0; color: var(--ink-1); }
.mini .hint { font-size: 11px; color: var(--ink-3); margin: 0 0 4px; }
table { border-collapse: collapse; width: 100%; font-size: 13px; }
th, td { text-align: left; padding: 4px 10px 4px 0; border-bottom: 1px solid var(--grid); }
th { color: var(--ink-2); font-weight: 600; }
td.num, th.num { text-align: right; font-variant-numeric: tabular-nums; }
.status { white-space: nowrap; }
.status .dot { display: inline-block; width: 9px; height: 9px; border-radius: 50%; margin-right: 5px; vertical-align: 0; }
#tooltip {
  position: fixed; pointer-events: none; display: none; z-index: 10;
  background: var(--surface-1); border: 1px solid var(--ring); border-radius: 8px;
  padding: 8px 10px; font-size: 12px; box-shadow: 0 4px 14px rgba(0,0,0,0.18);
  max-width: 280px;
}
#tooltip .t-head { color: var(--ink-2); margin-bottom: 4px; }
#tooltip .row { display: flex; align-items: center; gap: 6px; }
#tooltip .row .key { width: 12px; height: 3px; border-radius: 2px; flex: none; }
#tooltip .row .v { font-weight: 600; color: var(--ink-1); }
#tooltip .row .n { color: var(--ink-2); }
.empty { color: var(--ink-3); font-size: 13px; }
</style>
</head>
<body>
<h1>TRMMA quality dashboard</h1>
<p class="sub" id="subtitle"></p>
<div class="filters">
  <label for="benchsel">Bench</label>
  <select id="benchsel"></select>
</div>
<div class="kpis" id="kpis"></div>
<div class="grid2" id="epscharts"></div>
<div class="grid2" id="historycharts"></div>
<div class="card" id="reliability">
  <h2>Confidence calibration</h2>
  <p class="hint">Reliability diagrams per method group (latest run in scope). Bars: empirical accuracy per confidence bin; the thin line is perfect calibration.</p>
  <div class="minis" id="relgrid"></div>
</div>
<div class="card" id="slices">
  <h2>Sliced accuracy (latest run in scope)</h2>
  <p class="hint">Mean quality attributed to where it varies: sampling interval, gap length, candidate-set size, degradation path, road density.</p>
  <div id="slicetables"></div>
</div>
<div class="card" id="drift">
  <h2>Train vs serve feature drift (PSI)</h2>
  <p class="hint">Population Stability Index over the matcher input-feature histograms. Rule of thumb: &lt;0.1 stable, 0.1&ndash;0.25 moderate, &gt;0.25 drifted.</p>
  <div id="drifttable"></div>
</div>
<div class="card" id="memcard">
  <h2>Memory</h2>
  <p class="hint">Process RSS and per-subsystem retained bytes (latest run in scope); deltas compare against the previous run that carries a memory section. Growth shows red because more memory is worse.</p>
  <div id="memtable"></div>
</div>
<div class="card">
  <h2>Runs</h2>
  <div id="runstable"></div>
</div>
<div id="tooltip"></div>
<script type="application/json" id="payload">
)HTML";

constexpr const char kDashboardSuffix[] = R"HTML(
</script>
<script>
'use strict';
const payload = JSON.parse(document.getElementById('payload').textContent);
const ALL_RUNS = payload.runs;
const SERIES = ['--s1','--s2','--s3','--s4','--s5','--s6','--s7','--s8'];
const EPS_ORDER = ['<=15s','<=30s','<=60s','<=120s','<=180s','>180s','unknown'];
const css = name => getComputedStyle(document.documentElement).getPropertyValue(name).trim();
const fmt = (v, d) => (v == null || !isFinite(v)) ? '–' : v.toFixed(d == null ? 3 : d);
const tooltip = document.getElementById('tooltip');

function showTooltip(ev, head, rows) {
  tooltip.textContent = '';
  if (head) {
    const h = document.createElement('div');
    h.className = 't-head';
    h.textContent = head;
    tooltip.appendChild(h);
  }
  for (const r of rows) {
    const div = document.createElement('div');
    div.className = 'row';
    if (r.color) {
      const k = document.createElement('span');
      k.className = 'key';
      k.style.background = r.color;
      div.appendChild(k);
    }
    const v = document.createElement('span');
    v.className = 'v';
    v.textContent = r.value;
    div.appendChild(v);
    const n = document.createElement('span');
    n.className = 'n';
    n.textContent = r.name;
    div.appendChild(n);
    tooltip.appendChild(div);
  }
  tooltip.style.display = 'block';
  const pad = 14;
  let x = ev.clientX + pad, y = ev.clientY + pad;
  const r = tooltip.getBoundingClientRect();
  if (x + r.width > innerWidth - 8) x = ev.clientX - r.width - pad;
  if (y + r.height > innerHeight - 8) y = ev.clientY - r.height - pad;
  tooltip.style.left = x + 'px';
  tooltip.style.top = y + 'px';
}
function hideTooltip() { tooltip.style.display = 'none'; }

function groupsOf(run) {
  return (run.quality && run.quality.groups) ? run.quality.groups : [];
}
// Aggregates one run's groups across cities: kind|method -> {quality, cal}.
function methodAgg(run) {
  const agg = new Map();
  for (const g of groupsOf(run)) {
    const key = g.kind + '|' + g.method;
    let a = agg.get(key);
    if (!a) {
      a = { kind: g.kind, method: g.method, scored: 0, qsum: 0,
            samples: 0, ecesum: 0, briersum: 0, slices: new Map() };
      agg.set(key, a);
    }
    a.scored += g.scored;
    a.qsum += (g.mean_quality >= 0 ? g.mean_quality : 0) * g.scored;
    const cal = g.calibration || {};
    if (cal.samples > 0) {
      a.samples += cal.samples;
      a.ecesum += cal.ece * cal.samples;
      a.briersum += cal.brier * cal.samples;
    }
    for (const s of (g.slices || [])) {
      const k = s.dimension + '|' + s.bucket;
      let sl = a.slices.get(k);
      if (!sl) { sl = { dimension: s.dimension, bucket: s.bucket, scored: 0, qsum: 0, requests: 0 }; a.slices.set(k, sl); }
      sl.requests += s.requests;
      sl.scored += s.scored;
      sl.qsum += (s.mean_quality >= 0 ? s.mean_quality : 0) * s.scored;
    }
  }
  for (const a of agg.values()) {
    a.mean_quality = a.scored > 0 ? a.qsum / a.scored : null;
    a.ece = a.samples > 0 ? a.ecesum / a.samples : null;
    a.brier = a.samples > 0 ? a.briersum / a.samples : null;
  }
  return agg;
}
// Stable per-kind color assignment over the WHOLE payload, so a method
// keeps its hue across filters and charts (color follows the entity).
function buildColorMap() {
  const byKind = new Map();
  for (const run of ALL_RUNS) {
    for (const g of groupsOf(run)) {
      if (!byKind.has(g.kind)) byKind.set(g.kind, new Set());
      byKind.get(g.kind).add(g.method);
    }
  }
  const colors = new Map();
  for (const [kind, methods] of byKind) {
    [...methods].sort().forEach((m, i) => {
      colors.set(kind + '|' + m,
                 i < SERIES.length ? css(SERIES[i]) : css('--ink-3'));
    });
  }
  return colors;
}
const COLOR = buildColorMap();
const colorOf = (kind, method) => COLOR.get(kind + '|' + method) || css('--ink-3');

function el(tag, attrs, parent) {
  const e = attrs && attrs.svg
      ? document.createElementNS('http://www.w3.org/2000/svg', tag)
      : document.createElement(tag);
  for (const [k, v] of Object.entries(attrs || {})) {
    if (k === 'svg') continue;
    if (k === 'text') e.textContent = v; else e.setAttribute(k, v);
  }
  if (parent) parent.appendChild(e);
  return e;
}

// A line chart with crosshair tooltip. series: [{name, color, points:[{x,label,y}]}]
function lineChart(parent, series, xLabels, opts) {
  const W = 430, H = 230, L = 44, R = 14, T = 12, B = 26;
  const svg = el('svg', { svg: 1, viewBox: `0 0 ${W} ${H}`, width: '100%' }, parent);
  const ymax = 1.0, ymin = 0.0;
  const px = i => xLabels.length < 2 ? (L + (W - L - R) / 2)
      : L + (W - L - R) * i / (xLabels.length - 1);
  const py = v => T + (H - T - B) * (1 - (v - ymin) / (ymax - ymin));
  for (let g = 0; g <= 4; ++g) {
    const v = ymin + (ymax - ymin) * g / 4;
    el('line', { svg: 1, x1: L, x2: W - R, y1: py(v), y2: py(v),
                 stroke: css('--grid'), 'stroke-width': 1 }, svg);
    el('text', { svg: 1, x: L - 6, y: py(v) + 4, 'text-anchor': 'end',
                 text: v.toFixed(2) }, svg);
  }
  el('line', { svg: 1, x1: L, x2: W - R, y1: py(0), y2: py(0),
               stroke: css('--axis'), 'stroke-width': 1 }, svg);
  xLabels.forEach((lbl, i) => {
    el('text', { svg: 1, x: px(i), y: H - 8, 'text-anchor': 'middle', text: lbl }, svg);
  });
  for (const s of series) {
    const pts = s.points.filter(p => p.y != null && isFinite(p.y));
    if (!pts.length) continue;
    const d = pts.map((p, i) => (i ? 'L' : 'M') + px(p.x) + ' ' + py(p.y)).join(' ');
    el('path', { svg: 1, d, fill: 'none', stroke: s.color, 'stroke-width': 2,
                 'stroke-linecap': 'round', 'stroke-linejoin': 'round' }, svg);
    for (const p of pts) {
      el('circle', { svg: 1, cx: px(p.x), cy: py(p.y), r: 4, fill: s.color,
                     stroke: css('--surface-1'), 'stroke-width': 2 }, svg);
    }
    const last = pts[pts.length - 1];
    if (series.length <= 4 && opts && opts.directLabels) {
      el('text', { svg: 1, class: 'dl', x: Math.min(px(last.x) + 7, W - 2),
                   y: py(last.y) + 4, text: s.name }, svg);
    }
  }
  const hair = el('line', { svg: 1, y1: T, y2: H - B, stroke: css('--axis'),
                            'stroke-width': 1, visibility: 'hidden' }, svg);
  svg.addEventListener('pointermove', ev => {
    const rect = svg.getBoundingClientRect();
    const sx = (ev.clientX - rect.left) * W / rect.width;
    let best = 0, bestd = Infinity;
    for (let i = 0; i < xLabels.length; ++i) {
      const d = Math.abs(px(i) - sx);
      if (d < bestd) { bestd = d; best = i; }
    }
    hair.setAttribute('x1', px(best));
    hair.setAttribute('x2', px(best));
    hair.setAttribute('visibility', 'visible');
    const rows = [];
    for (const s of series) {
      const p = s.points.find(p => p.x === best);
      if (p && p.y != null && isFinite(p.y)) {
        rows.push({ color: s.color, value: fmt(p.y), name: s.name });
      }
    }
    rows.sort((a, b) => parseFloat(b.value) - parseFloat(a.value));
    showTooltip(ev, xLabels[best], rows);
  });
  svg.addEventListener('pointerleave', () => { hair.setAttribute('visibility', 'hidden'); hideTooltip(); });
  return svg;
}

function legend(parent, series, mark) {
  if (series.length < 2) return;
  const box = el('div', { class: 'legend' }, parent);
  for (const s of series) {
    const item = el('span', {}, box);
    el('span', { class: mark === 'swatch' ? 'swatch' : 'key',
                 style: 'background:' + s.color }, item);
    item.appendChild(document.createTextNode(s.name));
  }
}

function card(parent, title, hint) {
  const c = el('div', { class: 'card' }, parent);
  el('h2', { text: title }, c);
  if (hint) el('p', { class: 'hint', text: hint }, c);
  return c;
}

const KIND_TITLE = { mm: 'Map matching (F1)', recovery: 'Recovery (accuracy)', pipeline: 'Pipeline (accuracy)' };

function renderEpsCharts(runs) {
  const root = document.getElementById('epscharts');
  root.textContent = '';
  const latest = runs[runs.length - 1];
  if (!latest) return;
  const byKind = new Map();
  for (const g of groupsOf(latest)) {
    if (!byKind.has(g.kind)) byKind.set(g.kind, new Map());
    const methods = byKind.get(g.kind);
    if (!methods.has(g.method)) methods.set(g.method, new Map());
    const buckets = methods.get(g.method);
    for (const s of (g.slices || [])) {
      if (s.dimension !== 'epsilon' || s.scored <= 0) continue;
      let b = buckets.get(s.bucket);
      if (!b) { b = { scored: 0, qsum: 0 }; buckets.set(s.bucket, b); }
      b.scored += s.scored;
      b.qsum += s.mean_quality * s.scored;
    }
  }
  for (const [kind, methods] of [...byKind.entries()].sort()) {
    const used = EPS_ORDER.filter(b => [...methods.values()].some(m => m.has(b)));
    if (!used.length) continue;
    const c = card(root, 'Accuracy vs sampling interval — ' + (KIND_TITLE[kind] || kind),
                   'Mean quality per effective sparse-interval bucket, latest run in scope (' + latest.file + ').');
    const series = [...methods.entries()].sort().map(([m, buckets]) => ({
      name: m, color: colorOf(kind, m),
      points: used.map((b, i) => {
        const v = buckets.get(b);
        return { x: i, y: v ? v.qsum / v.scored : null };
      }),
    }));
    lineChart(c, series, used, { directLabels: true });
    legend(c, series, 'key');
  }
}

function renderHistory(runs) {
  const root = document.getElementById('historycharts');
  root.textContent = '';
  const withQ = runs.filter(r => groupsOf(r).length);
  if (!withQ.length) return;
  const byKind = new Map();
  withQ.forEach((run, i) => {
    for (const a of methodAgg(run).values()) {
      if (a.mean_quality == null) continue;
      if (!byKind.has(a.kind)) byKind.set(a.kind, new Map());
      const methods = byKind.get(a.kind);
      if (!methods.has(a.method)) methods.set(a.method, []);
      methods.get(a.method).push({ x: i, y: a.mean_quality });
    }
  });
  const labels = withQ.map((r, i) => '#' + (i + 1));
  for (const [kind, methods] of [...byKind.entries()].sort()) {
    const c = card(root, 'Run-over-run quality — ' + (KIND_TITLE[kind] || kind),
                   withQ.length < 2 ? 'Only one run in scope; add more BENCH files for history.'
                                    : 'Mean quality per run, oldest to newest.');
    const series = [...methods.entries()].sort().map(([m, pts]) => ({
      name: m, color: colorOf(kind, m), points: pts,
    }));
    lineChart(c, series, labels, { directLabels: true });
    legend(c, series, 'key');
  }
}

function renderReliability(runs) {
  const grid = document.getElementById('relgrid');
  grid.textContent = '';
  const latest = runs[runs.length - 1];
  const groups = latest ? groupsOf(latest).filter(g => g.calibration && g.calibration.samples > 0) : [];
  if (!groups.length) {
    el('p', { class: 'empty', text: 'No calibrated probability scores in scope (only MMA-style matchers emit probabilities).' }, grid);
    return;
  }
  for (const g of groups) {
    const mini = el('div', { class: 'mini' }, grid);
    el('h3', { text: g.method + ' · ' + g.city + ' (' + g.kind + ')' }, mini);
    const cal = g.calibration;
    el('p', { class: 'hint', text: 'ECE ' + fmt(cal.ece) + ' · Brier ' + fmt(cal.brier) + ' · n=' + cal.samples +
              (cal.dropped_nonfinite ? ' · dropped NaN=' + cal.dropped_nonfinite : '') }, mini);
    const W = 210, H = 140, L = 26, R = 6, T = 6, B = 18;
    const svg = el('svg', { svg: 1, viewBox: `0 0 ${W} ${H}`, width: '100%' }, mini);
    const bins = cal.bins || [];
    const px = v => L + (W - L - R) * v;
    const py = v => T + (H - T - B) * (1 - v);
    el('line', { svg: 1, x1: px(0), y1: py(0), x2: px(1), y2: py(1),
                 stroke: css('--axis'), 'stroke-width': 1 }, svg);
    const bw = (W - L - R) / Math.max(bins.length, 1);
    bins.forEach((b, i) => {
      if (!b.count) return;
      const x = L + bw * i + 1, w = Math.max(bw - 2, 1);
      const h = Math.max(py(0) - py(b.accuracy), 0);
      const bar = el('rect', { svg: 1, x, width: w, y: py(b.accuracy), height: h,
                               rx: Math.min(4, w / 2), fill: css('--s1') }, svg);
      if (h > 4) el('rect', { svg: 1, x, width: w, y: py(0) - 2, height: 2, fill: css('--s1') }, svg);
      const hit = el('rect', { svg: 1, x: L + bw * i, width: bw, y: T, height: H - T - B, fill: 'transparent' }, svg);
      hit.addEventListener('pointermove', ev => {
        bar.setAttribute('opacity', '0.8');
        showTooltip(ev, 'confidence ' + fmt(b.lo, 1) + '–' + fmt(b.hi, 1), [
          { color: css('--s1'), value: fmt(b.accuracy), name: 'accuracy' },
          { value: fmt(b.mean_confidence), name: 'mean confidence' },
          { value: String(b.count), name: 'samples' },
        ]);
      });
      hit.addEventListener('pointerleave', () => { bar.setAttribute('opacity', '1'); hideTooltip(); });
    });
    el('text', { svg: 1, x: px(0), y: H - 5, text: '0' }, svg);
    el('text', { svg: 1, x: px(1), y: H - 5, 'text-anchor': 'end', text: 'confidence 1.0' }, svg);
  }
}

function renderSlices(runs) {
  const root = document.getElementById('slicetables');
  root.textContent = '';
  const latest = runs[runs.length - 1];
  const groups = latest ? groupsOf(latest) : [];
  if (!groups.length) {
    el('p', { class: 'empty', text: 'No quality section in the latest run in scope.' }, root);
    return;
  }
  const tbl = el('table', {}, root);
  const head = el('tr', {}, el('thead', {}, tbl));
  for (const h of ['Group', 'Dimension', 'Bucket']) el('th', { text: h }, head);
  for (const h of ['Requests', 'Mean quality']) el('th', { class: 'num', text: h }, head);
  const body = el('tbody', {}, tbl);
  for (const g of groups) {
    for (const s of (g.slices || [])) {
      const tr = el('tr', {}, body);
      const name = el('td', {}, tr);
      el('span', { class: 'swatch', style: 'display:inline-block;width:10px;height:10px;border-radius:3px;margin-right:5px;vertical-align:-1px;background:' + colorOf(g.kind, g.method) }, name);
      name.appendChild(document.createTextNode(g.method + ' · ' + g.city + ' (' + g.kind + ')'));
      el('td', { text: s.dimension }, tr);
      el('td', { text: s.bucket }, tr);
      el('td', { class: 'num', text: String(s.requests) }, tr);
      el('td', { class: 'num', text: s.scored > 0 ? fmt(s.mean_quality) : '–' }, tr);
    }
  }
}

function renderDrift(runs) {
  const root = document.getElementById('drifttable');
  root.textContent = '';
  const latest = runs[runs.length - 1];
  const drift = (latest && latest.quality && latest.quality.drift) ? latest.quality.drift : [];
  if (!drift.length) {
    el('p', { class: 'empty', text: 'No drift histograms in scope (enable quality telemetry during training and serving).' }, root);
    return;
  }
  const tbl = el('table', {}, root);
  const head = el('tr', {}, el('thead', {}, tbl));
  el('th', { text: 'Feature' }, head);
  for (const h of ['Train obs', 'Serve obs', 'PSI']) el('th', { class: 'num', text: h }, head);
  el('th', { text: 'Status' }, head);
  const body = el('tbody', {}, tbl);
  for (const d of drift) {
    const tr = el('tr', {}, body);
    el('td', { text: d.feature }, tr);
    el('td', { class: 'num', text: String(d.train) }, tr);
    el('td', { class: 'num', text: String(d.serve) }, tr);
    el('td', { class: 'num', text: fmt(d.psi) }, tr);
    const td = el('td', { class: 'status' }, tr);
    let color, label, icon;
    if (d.degenerate) { color = css('--ink-3'); label = 'degenerate'; icon = '◌'; }
    else if (d.psi < 0.1) { color = css('--status-good'); label = 'stable'; icon = '●'; }
    else if (d.psi < 0.25) { color = css('--status-warn'); label = 'moderate shift'; icon = '▲'; }
    else { color = css('--status-serious'); label = 'drifted'; icon = '▲'; }
    const dot = el('span', {}, td);
    dot.style.color = color;
    dot.textContent = icon + ' ';
    td.appendChild(document.createTextNode(label));
  }
}

function memOf(run) {
  return (run.memory && run.memory.subsystems) ? run.memory : null;
}
function fmtBytes(b) {
  if (b == null || !isFinite(b)) return '–';
  const units = ['B', 'KiB', 'MiB', 'GiB', 'TiB'];
  let u = 0;
  while (Math.abs(b) >= 1024 && u < units.length - 1) { b /= 1024; ++u; }
  return (u ? b.toFixed(1) : String(b)) + ' ' + units[u];
}

function renderMemory(runs) {
  const root = document.getElementById('memtable');
  root.textContent = '';
  const withM = runs.filter(r => memOf(r));
  if (!withM.length) {
    el('p', { class: 'empty', text: 'No memory section in scope (runs predate memory telemetry, or TRMMA_MEM_STATS=0).' }, root);
    return;
  }
  const latest = memOf(withM[withM.length - 1]);
  const prev = withM.length > 1 ? memOf(withM[withM.length - 2]) : null;
  // Growth is bad: positive deltas render with the "down" (bad) color.
  const deltaCell = (tr, now, before) => {
    const td = el('td', { class: 'num' }, tr);
    if (before == null || now == null) { td.textContent = '–'; return; }
    const d = now - before;
    td.textContent = (d >= 0 ? '+' : '−') + fmtBytes(Math.abs(d));
    td.className = 'num delta ' +
        (Math.abs(d) < 1 ? 'flat' : (d > 0 ? 'down' : 'up'));
  };
  const tbl = el('table', {}, root);
  const head = el('tr', {}, el('thead', {}, tbl));
  el('th', { text: 'Subsystem' }, head);
  for (const h of ['Current', 'Peak', 'Δ current']) {
    el('th', { class: 'num', text: h }, head);
  }
  const body = el('tbody', {}, tbl);
  const prevBy = new Map((prev ? prev.subsystems : []).map(s => [s.name, s]));
  const rows = [...latest.subsystems]
      .sort((a, b) => b.current_bytes - a.current_bytes);
  for (const s of rows) {
    const tr = el('tr', {}, body);
    el('td', { text: s.name }, tr);
    el('td', { class: 'num', text: fmtBytes(s.current_bytes) }, tr);
    el('td', { class: 'num', text: fmtBytes(s.peak_bytes) }, tr);
    const p = prevBy.get(s.name);
    deltaCell(tr, s.current_bytes, p ? p.current_bytes : null);
  }
  const trr = el('tr', {}, body);
  el('td', { text: 'process RSS' }, trr);
  el('td', { class: 'num', text: fmtBytes(latest.rss_bytes) }, trr);
  el('td', { class: 'num', text: fmtBytes(latest.rss_peak_bytes) }, trr);
  deltaCell(trr, latest.rss_peak_bytes, prev ? prev.rss_peak_bytes : null);
  if (withM.length > 1) {
    el('p', { class: 'hint', text: 'Peak RSS history (oldest to newest):' },
       root);
    const ht = el('table', {}, root);
    const hh = el('tr', {}, el('thead', {}, ht));
    for (const h of ['#', 'File']) el('th', { text: h }, hh);
    for (const h of ['Peak RSS', 'Δ vs previous']) {
      el('th', { class: 'num', text: h }, hh);
    }
    const hb = el('tbody', {}, ht);
    withM.forEach((r, i) => {
      const m = memOf(r);
      const tr = el('tr', {}, hb);
      el('td', { text: '#' + (i + 1) }, tr);
      el('td', { text: r.file }, tr);
      el('td', { class: 'num', text: fmtBytes(m.rss_peak_bytes) }, tr);
      deltaCell(tr, m.rss_peak_bytes,
                i > 0 ? memOf(withM[i - 1]).rss_peak_bytes : null);
    });
  }
}

function renderKpis(runs) {
  const root = document.getElementById('kpis');
  root.textContent = '';
  const withQ = runs.filter(r => groupsOf(r).length);
  const latest = withQ[withQ.length - 1];
  const prev = withQ[withQ.length - 2];
  if (!latest) {
    el('p', { class: 'empty', text: 'No run in scope carries a quality section.' }, root);
    return;
  }
  const stat = (agg, kind) => {
    let scored = 0, qsum = 0, worstEce = null;
    for (const a of agg.values()) {
      if (a.kind !== kind) continue;
      if (a.mean_quality != null) { scored += a.scored; qsum += a.mean_quality * a.scored; }
      if (a.ece != null && (worstEce == null || a.ece > worstEce)) worstEce = a.ece;
    }
    return { quality: scored > 0 ? qsum / scored : null, worstEce };
  };
  const la = methodAgg(latest);
  const pa = prev ? methodAgg(prev) : null;
  const tiles = [];
  for (const kind of ['mm', 'recovery']) {
    const now = stat(la, kind);
    if (now.quality == null) continue;
    const before = pa ? stat(pa, kind).quality : null;
    tiles.push({ label: KIND_TITLE[kind] || kind, value: fmt(now.quality),
                 delta: before != null ? now.quality - before : null, upGood: true });
    if (now.worstEce != null) {
      const ecePrev = pa ? stat(pa, kind).worstEce : null;
      tiles.push({ label: 'Worst ECE — ' + kind, value: fmt(now.worstEce),
                   delta: ecePrev != null ? now.worstEce - ecePrev : null, upGood: false });
    }
  }
  const drift = (latest.quality && latest.quality.drift) ? latest.quality.drift : [];
  const live = drift.filter(d => !d.degenerate);
  if (live.length) {
    const maxPsi = Math.max(...live.map(d => d.psi));
    tiles.push({ label: 'Max feature PSI', value: fmt(maxPsi), delta: null });
  }
  for (const t of tiles) {
    const tile = el('div', { class: 'tile' }, root);
    el('div', { class: 'label', text: t.label }, tile);
    el('div', { class: 'value', text: t.value }, tile);
    if (t.delta != null) {
      const good = t.upGood ? t.delta >= 0 : t.delta <= 0;
      const cls = Math.abs(t.delta) < 1e-9 ? 'flat' : (good ? 'up' : 'down');
      el('div', { class: 'delta ' + cls,
                  text: (t.delta >= 0 ? '+' : '') + t.delta.toFixed(3) + ' vs previous run' }, tile);
    }
  }
}

function renderRuns(runs) {
  const root = document.getElementById('runstable');
  root.textContent = '';
  const tbl = el('table', {}, root);
  const head = el('tr', {}, el('thead', {}, tbl));
  for (const h of ['#', 'File', 'Bench']) el('th', { text: h }, head);
  for (const h of ['Wall (s)', 'Quality section']) el('th', { class: 'num', text: h }, head);
  const body = el('tbody', {}, tbl);
  runs.forEach((r, i) => {
    const tr = el('tr', {}, body);
    el('td', { text: '#' + (i + 1) }, tr);
    el('td', { text: r.file }, tr);
    el('td', { text: r.name }, tr);
    el('td', { class: 'num', text: fmt(r.wall_seconds, 1) }, tr);
    el('td', { class: 'num', text: groupsOf(r).length ? 'yes' : '–' }, tr);
  });
}

function render() {
  const sel = document.getElementById('benchsel').value;
  const runs = sel === '*' ? ALL_RUNS : ALL_RUNS.filter(r => r.name === sel);
  document.getElementById('subtitle').textContent =
      runs.length + ' run report(s) in scope' +
      (runs.length ? ', newest: ' + runs[runs.length - 1].file : '');
  renderKpis(runs);
  renderEpsCharts(runs);
  renderHistory(runs);
  renderReliability(runs);
  renderSlices(runs);
  renderDrift(runs);
  renderMemory(runs);
  renderRuns(runs);
}

(function init() {
  const sel = document.getElementById('benchsel');
  el('option', { value: '*', text: 'All benches' }, sel);
  for (const name of [...new Set(ALL_RUNS.map(r => r.name))].sort()) {
    el('option', { value: name, text: name }, sel);
  }
  sel.addEventListener('change', render);
  render();
})();
</script>
</body>
</html>
)HTML";

}  // namespace

std::string RenderQualityDashboard(const std::vector<BenchRunSummary>& runs) {
  std::string payload = BuildDashboardPayload(runs);
  // "</" would terminate the embedding <script> block early; JSON accepts
  // the escaped form, so rewrite defensively (method/city names are repo
  // controlled, but the payload embeds arbitrary report strings).
  std::string safe;
  safe.reserve(payload.size());
  for (std::size_t i = 0; i < payload.size(); ++i) {
    if (payload[i] == '<' && i + 1 < payload.size() && payload[i + 1] == '/') {
      safe += "<\\/";
      ++i;
    } else {
      safe += payload[i];
    }
  }
  std::string out;
  out.reserve(sizeof(kDashboardPrefix) + safe.size() +
              sizeof(kDashboardSuffix));
  out += kDashboardPrefix;
  out += safe;
  out += kDashboardSuffix;
  return out;
}

}  // namespace trmma
