// xomatiq_shell: interactive client for xomatiq_server.
//
//   xomatiq_shell [--host H] [--port N]
//
// Queries end with ';' and may span lines. The leading mode sticks until
// changed:
//   .xq       XomatiQ queries, table output (default)
//   .xml      XomatiQ queries, re-tagged XML output
//   .sql      raw SQL against the generic schema
//   .explain  show the relational plans behind a XomatiQ query
//   .stats    server metrics snapshot
//   .ping     liveness probe
//   .quit

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "client/client.h"

namespace {

using namespace xomatiq;

void PrintRows(const srv::Response& response) {
  std::vector<size_t> widths;
  for (const std::string& col : response.columns) {
    widths.push_back(col.size());
  }
  std::vector<std::vector<std::string>> cells;
  for (const rel::Tuple& row : response.rows) {
    std::vector<std::string> line;
    for (size_t i = 0; i < row.size(); ++i) {
      std::string text = row[i].ToString();
      if (i >= widths.size()) widths.push_back(0);
      if (text.size() > widths[i]) widths[i] = text.size();
      line.push_back(std::move(text));
    }
    cells.push_back(std::move(line));
  }
  auto rule = [&] {
    std::putchar('+');
    for (size_t w : widths) {
      for (size_t i = 0; i < w + 2; ++i) std::putchar('-');
      std::putchar('+');
    }
    std::putchar('\n');
  };
  rule();
  std::putchar('|');
  for (size_t i = 0; i < widths.size(); ++i) {
    const char* name = i < response.columns.size()
                           ? response.columns[i].c_str()
                           : "";
    std::printf(" %-*s |", static_cast<int>(widths[i]), name);
  }
  std::putchar('\n');
  rule();
  for (const auto& line : cells) {
    std::putchar('|');
    for (size_t i = 0; i < widths.size(); ++i) {
      const char* text = i < line.size() ? line[i].c_str() : "";
      std::printf(" %-*s |", static_cast<int>(widths[i]), text);
    }
    std::putchar('\n');
  }
  rule();
  std::printf("%zu row%s%s\n", cells.size(), cells.size() == 1 ? "" : "s",
              response.cached() ? " (cached)" : "");
}

void Run(cli::Client& client, common::QueryMode mode,
         const std::string& text) {
  auto response = client.Execute(mode, text);
  if (!response.ok()) {
    std::printf("transport error: %s\n",
                response.status().ToString().c_str());
    return;
  }
  if (!response->ok()) {
    std::printf("error: %s\n", response->status().ToString().c_str());
    return;
  }
  if (response->kind == srv::PayloadKind::kRows) {
    PrintRows(*response);
  } else {
    std::printf("%s%s\n", response->text.c_str(),
                response->cached() ? "\n(cached)" : "");
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  uint16_t port = 7333;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--host") == 0 && i + 1 < argc) {
      host = argv[++i];
    } else if (std::strcmp(argv[i], "--port") == 0 && i + 1 < argc) {
      port = static_cast<uint16_t>(std::atoi(argv[++i]));
    } else {
      std::fprintf(stderr, "usage: xomatiq_shell [--host H] [--port N]\n");
      return 2;
    }
  }
  // Tolerate a server that is still coming up: a few connect retries with
  // backoff before giving up.
  auto client = cli::Client::ConnectWithRetry(host, port);
  if (!client.ok()) {
    std::fprintf(stderr, "%s\n", client.status().ToString().c_str());
    return 1;
  }
  std::printf("connected to %s:%u -- .help for commands\n", host.c_str(),
              port);

  common::QueryMode mode = common::QueryMode::kXq;
  std::string pending;
  char line[4096];
  std::printf("xq> ");
  std::fflush(stdout);
  while (std::fgets(line, sizeof(line), stdin) != nullptr) {
    std::string text(line);
    while (!text.empty() && (text.back() == '\n' || text.back() == '\r')) {
      text.pop_back();
    }
    if (pending.empty() && !text.empty() && text[0] == '.') {
      if (text == ".quit" || text == ".exit") break;
      if (text == ".sql") {
        mode = common::QueryMode::kSql;
      } else if (text == ".xq") {
        mode = common::QueryMode::kXq;
      } else if (text == ".xml") {
        mode = common::QueryMode::kXqXml;
      } else if (text == ".explain") {
        mode = common::QueryMode::kExplain;
      } else if (text == ".stats") {
        Run(*client, common::QueryMode::kStats, "");
      } else if (text == ".ping") {
        Run(*client, common::QueryMode::kPing, "");
      } else {
        std::printf(
            ".sql | .xq | .xml | .explain : switch query mode\n"
            ".stats | .ping               : server introspection\n"
            ".quit                        : leave\n"
            "anything else: a query, terminated by ';'\n");
      }
      std::printf("%s> ", common::QueryModeName(mode).data());
      std::fflush(stdout);
      continue;
    }
    pending += text;
    size_t end = pending.find(';');
    if (end == std::string::npos) {
      pending += '\n';
      std::printf("  > ");
      std::fflush(stdout);
      continue;
    }
    std::string query = pending.substr(0, end);
    pending.clear();
    if (!query.empty()) Run(*client, mode, query);
    std::printf("%s> ", common::QueryModeName(mode).data());
    std::fflush(stdout);
  }
  return 0;
}
