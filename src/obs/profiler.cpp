#include "obs/profiler.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>

namespace gpbft::obs {

namespace {

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void append_json_escaped(std::string& out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

}  // namespace

Profiler& Profiler::instance() {
  static Profiler profiler;
  return profiler;
}

Profiler::SiteId Profiler::register_site(std::string name) {
  const auto it = site_ids_.find(name);
  if (it != site_ids_.end()) return it->second;
  const SiteId id = static_cast<SiteId>(site_names_.size());
  site_ids_.emplace(name, id);
  site_names_.push_back(std::move(name));
  return id;
}

Profiler::Node* Profiler::Node::child(SiteId s) {
  // Linear scan: probe trees are shallow and narrow (a handful of children
  // per node), so this beats a map on the hot path.
  for (const auto& c : children) {
    if (c->site == s) return c.get();
  }
  children.push_back(std::make_unique<Node>());
  children.back()->site = s;
  return children.back().get();
}

std::uint64_t Profiler::Node::self_ns() const {
  std::uint64_t child_ns = 0;
  for (const auto& c : children) child_ns += c->wall_ns;
  return wall_ns > child_ns ? wall_ns - child_ns : 0;
}

void Profiler::enter(SiteId site) {
  Node* parent = stack_.empty() ? &root_ : stack_.back().node;
  Node* node = parent->child(site);
  node->calls += 1;
  stack_.push_back(Frame{node, steady_now_ns()});
}

void Profiler::leave() {
  if (stack_.empty()) return;  // unbalanced leave: ignore rather than corrupt
  const Frame frame = stack_.back();
  stack_.pop_back();
  frame.node->wall_ns += steady_now_ns() - frame.start_ns;
}

void Profiler::clear() {
  root_ = Node{};
  stack_.clear();
}

std::uint64_t Profiler::total_wall_ns() const {
  std::uint64_t total = 0;
  for (const auto& c : root_.children) total += c->wall_ns;
  return total;
}

namespace {

void node_to_json(std::string& out, std::uint64_t calls, std::uint64_t wall_ns,
                  std::uint64_t self_ns, const std::string& name) {
  out += "{\"name\":\"";
  append_json_escaped(out, name);
  out += "\",\"calls\":" + std::to_string(calls);
  out += ",\"wall_ns\":" + std::to_string(wall_ns);
  out += ",\"self_ns\":" + std::to_string(self_ns);
}

}  // namespace

std::string Profiler::to_json() const {
  std::string out = "{\"profiler\":{\"sites\":" + std::to_string(site_names_.size()) +
                    ",\"tree\":";
  // Iterative DFS with explicit emit state would obscure the simple shape;
  // recursion depth equals probe nesting depth (single digits).
  const std::function<void(const Node&, const std::string&)> emit =
      [&](const Node& node, const std::string& name) {
        node_to_json(out, node.calls, node.wall_ns, node.self_ns(), name);
        out += ",\"children\":[";
        for (std::size_t i = 0; i < node.children.size(); ++i) {
          if (i != 0) out += ',';
          const Node& child = *node.children[i];
          emit(child, site_names_.at(child.site));
        }
        out += "]}";
      };
  emit(root_, "(root)");
  out += "}}\n";
  return out;
}

std::string Profiler::to_collapsed() const {
  std::string out;
  std::vector<const Node*> path;
  const std::function<void(const Node&)> walk = [&](const Node& node) {
    path.push_back(&node);
    const std::uint64_t self = node.self_ns();
    if (self > 0 && node.site != kNoSite) {
      std::string line;
      for (std::size_t i = 0; i < path.size(); ++i) {
        if (path[i]->site == kNoSite) continue;  // the implicit root
        if (!line.empty()) line += ';';
        line += site_names_.at(path[i]->site);
      }
      out += line + ' ' + std::to_string(self) + '\n';
    }
    for (const auto& c : node.children) walk(*c);
    path.pop_back();
  };
  walk(root_);
  return out;
}

std::string Profiler::hotspot_table(std::size_t top_n) const {
  struct Rollup {
    std::uint64_t self_ns{0};
    std::uint64_t wall_ns{0};
    std::uint64_t calls{0};
  };
  std::vector<Rollup> per_site(site_names_.size());
  const std::function<void(const Node&)> walk = [&](const Node& node) {
    if (node.site != kNoSite) {
      Rollup& r = per_site[node.site];
      r.self_ns += node.self_ns();
      r.calls += node.calls;
      r.wall_ns += node.wall_ns;
    }
    for (const auto& c : node.children) walk(*c);
  };
  walk(root_);

  std::vector<SiteId> order;
  for (SiteId id = 0; id < static_cast<SiteId>(per_site.size()); ++id) {
    if (per_site[id].calls > 0) order.push_back(id);
  }
  std::sort(order.begin(), order.end(), [&](SiteId a, SiteId b) {
    if (per_site[a].self_ns != per_site[b].self_ns) {
      return per_site[a].self_ns > per_site[b].self_ns;
    }
    return a < b;
  });
  if (order.size() > top_n) order.resize(top_n);

  const double total = static_cast<double>(total_wall_ns());
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%-34s %8s %12s %12s %12s %10s\n", "site", "self%",
                "self(ms)", "incl(ms)", "calls", "ns/call");
  out += buf;
  for (const SiteId id : order) {
    const Rollup& r = per_site[id];
    const double pct = total <= 0 ? 0.0 : 100.0 * static_cast<double>(r.self_ns) / total;
    const double per_call =
        r.calls == 0 ? 0.0 : static_cast<double>(r.self_ns) / static_cast<double>(r.calls);
    std::snprintf(buf, sizeof(buf), "%-34s %7.2f%% %12.3f %12.3f %12llu %10.0f\n",
                  site_names_.at(id).c_str(), pct, static_cast<double>(r.self_ns) / 1e6,
                  static_cast<double>(r.wall_ns) / 1e6,
                  static_cast<unsigned long long>(r.calls), per_call);
    out += buf;
  }
  if (order.empty()) out += "(no samples: profiler was disabled or nothing ran)\n";
  return out;
}

bool Profiler::write_json(const std::string& path) const {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) return false;
  const std::string body = to_json();
  file.write(body.data(), static_cast<std::streamsize>(body.size()));
  return static_cast<bool>(file);
}

bool Profiler::write_collapsed(const std::string& path) const {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) return false;
  const std::string body = to_collapsed();
  file.write(body.data(), static_cast<std::streamsize>(body.size()));
  return static_cast<bool>(file);
}

}  // namespace gpbft::obs
