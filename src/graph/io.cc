#include "src/graph/io.h"

#include <fstream>
#include <sstream>

namespace dstress::graph {

std::string WriteEdgeList(const Graph& g) {
  std::ostringstream out;
  out << "graph " << g.num_vertices() << "\n";
  for (auto [u, v] : g.Edges()) {
    out << u << " " << v << "\n";
  }
  return out.str();
}

std::optional<Graph> ParseEdgeList(const std::string& text, std::string* error) {
  std::istringstream stream(text);
  std::string line;
  int line_number = 0;
  std::optional<GraphBuilder> g;
  auto fail = [error, &line_number](const std::string& what) {
    *error = "line " + std::to_string(line_number) + ": " + what;
    return std::nullopt;
  };
  while (std::getline(stream, line)) {
    line_number++;
    auto hash = line.find('#');
    if (hash != std::string::npos) {
      line.resize(hash);
    }
    std::istringstream ls(line);
    std::string first;
    if (!(ls >> first)) {
      continue;  // blank
    }
    if (!g.has_value()) {
      int n = 0;
      if (first != "graph" || !(ls >> n) || n <= 0) {
        return fail("expected 'graph <N>' header");
      }
      std::string extra;
      if (ls >> extra) {
        return fail("trailing tokens after header");
      }
      g.emplace(n);
      continue;
    }
    int u = 0;
    int v = 0;
    std::istringstream es(line);
    std::string extra;
    if (!(es >> u >> v) || (es >> extra)) {
      return fail("expected '<u> <v>'");
    }
    if (u < 0 || v < 0 || u >= g->num_vertices() || v >= g->num_vertices()) {
      return fail("edge endpoint out of range");
    }
    if (u == v) {
      return fail("self-loops are not allowed");
    }
    g->AddEdge(u, v);
  }
  if (!g.has_value()) {
    *error = "missing 'graph <N>' header";
    return std::nullopt;
  }
  return g->Build();
}

std::optional<Graph> LoadEdgeListFile(const std::string& path, std::string* error) {
  std::ifstream file(path);
  if (!file) {
    *error = "cannot open '" + path + "'";
    return std::nullopt;
  }
  std::ostringstream contents;
  contents << file.rdbuf();
  return ParseEdgeList(contents.str(), error);
}

std::string WriteDot(const Graph& g, int core_size) {
  std::ostringstream out;
  out << "digraph dstress {\n";
  for (int v = 0; v < g.num_vertices(); v++) {
    out << "  n" << v;
    if (v < core_size) {
      out << " [style=filled, fillcolor=lightblue]";
    }
    out << ";\n";
  }
  for (auto [u, v] : g.Edges()) {
    out << "  n" << u << " -> n" << v << ";\n";
  }
  out << "}\n";
  return out.str();
}

}  // namespace dstress::graph
