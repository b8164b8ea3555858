// sqlts_client: talk to a running sqlts_server (docs/SERVER.md).
//
//   sqlts_client --port N [--host H] query <dataset> <sql> [--stream]
//                [--deadline-ms N] [--solo] [--retries N] [--backoff-ms N]
//   sqlts_client --port N metrics
//   sqlts_client --help
//
// `query` prints result rows as JSON lines and the stats line from the
// terminal reply; `--stream` subscribes instead (rows arrive as the
// server replays the dataset) and reports the join epoch.
//
// `--retries N` (default 0: off) reconnects with bounded exponential
// backoff + jitter on transient network failures — connection refused
// while the server restarts, ECONNRESET before any output — and
// reissues the request.  Once row output has started the request is
// never reissued (a blind reissue would duplicate rows; see
// docs/OPERATIONS.md).

#include <cstdio>
#include <cstdlib>
#include <string>

#include "server/client.h"

namespace {

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --port N [--host H] [--client NAME]\n"
               "  [--retries N] [--backoff-ms N] COMMAND\n"
               "  query <dataset> <sql> [--stream] [--deadline-ms N] "
               "[--solo]\n"
               "  metrics\n",
               argv0);
}

int Fail(const sqlts::Status& st) {
  std::fprintf(stderr, "%s\n", st.ToString().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  std::string client_name = "sqlts_client";
  sqlts::RetryOptions retry;
  int port = 0;
  std::vector<std::string> rest;
  bool stream = false, solo = false;
  int64_t deadline_ms = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      return 0;
    } else if (arg == "--port") {
      port = std::atoi(next());
    } else if (arg == "--host") {
      host = next();
    } else if (arg == "--client") {
      client_name = next();
    } else if (arg == "--stream") {
      stream = true;
    } else if (arg == "--solo") {
      solo = true;
    } else if (arg == "--deadline-ms") {
      deadline_ms = std::atoll(next());
    } else if (arg == "--retries") {
      retry.retries = std::atoi(next());
    } else if (arg == "--backoff-ms") {
      retry.backoff_ms = std::atoll(next());
    } else {
      rest.push_back(arg);
    }
  }
  if (port == 0 || rest.empty()) {
    Usage(argv[0]);
    return 2;
  }
  if (rest[0] == "query" && rest.size() != 3) {
    Usage(argv[0]);
    return 2;
  }
  if (rest[0] != "query" && rest[0] != "metrics") {
    Usage(argv[0]);
    return 2;
  }

  // One full session attempt: connect, handshake, issue, print replies.
  // `output_started` gates the reissue loop below — a request is only
  // retried while nothing of its result has been printed.
  bool output_started = false;
  auto run_session = [&]() -> sqlts::Status {
    auto client =
        sqlts::SqltsClient::ConnectWithRetry(host, static_cast<uint16_t>(port),
                                             retry);
    if (!client.ok()) return client.status();
    auto welcome = client->Hello(client_name);
    if (!welcome.ok()) return welcome.status();

    if (rest[0] == "metrics") {
      sqlts::Json req = sqlts::Json::Obj();
      req.Set("type", sqlts::Json::Str("METRICS"));
      SQLTS_RETURN_IF_ERROR(client->Send(req));
      auto reply = client->Read();
      if (!reply.ok()) return reply.status();
      output_started = true;
      std::printf("%s\n", reply->Dump().c_str());
      (void)client->Close();
      return sqlts::Status::OK();
    }
    const std::string& dataset = rest[1];
    const std::string& sql = rest[2];

    sqlts::Json req = sqlts::Json::Obj();
    req.Set("type", sqlts::Json::Str(stream ? "STREAM" : "QUERY"));
    req.Set("id", sqlts::Json::Int(1));
    req.Set("dataset", sqlts::Json::Str(dataset));
    req.Set("query", sqlts::Json::Str(sql));
    if (solo) req.Set("solo", sqlts::Json::Bool(true));
    if (deadline_ms > 0) req.Set("deadline_ms", sqlts::Json::Int(deadline_ms));
    SQLTS_RETURN_IF_ERROR(client->Send(req));

    while (true) {
      auto reply = client->Read();
      if (!reply.ok()) return reply.status();
      const std::string type = reply->GetString("type", "");
      if (type == "ROW") {
        output_started = true;
        std::printf("%s\n", reply->Find("row")->Dump().c_str());
      } else if (type == "STREAM_START") {
        std::printf("stream started (epoch %lld)\n",
                    static_cast<long long>(reply->GetInt("epoch", 0)));
      } else if (type == "RESULT") {
        output_started = true;
        const sqlts::Json* rows = reply->Find("rows");
        if (rows != nullptr) {
          for (const auto& row : rows->array()) {
            std::printf("%s\n", row.Dump().c_str());
          }
        }
        std::printf("%lld rows, stats %s\n",
                    static_cast<long long>(reply->GetInt("rows_returned", 0)),
                    reply->Find("stats")->Dump().c_str());
        break;
      } else if (type == "STREAM_END") {
        output_started = true;
        std::printf("stream ended, stats %s\n",
                    reply->Find("stats")->Dump().c_str());
        break;
      } else if (type == "ERROR") {
        return sqlts::StatusFromErrorMessage(*reply);
      } else if (type == "CANCELLED") {
        output_started = true;
        std::printf("cancelled\n");
        break;
      }
    }
    (void)client->Close();
    return sqlts::Status::OK();
  };

  // Reconnect-and-reissue: transient failures before any output are
  // retried with the same bounded backoff the connect path uses.
  uint64_t rng = retry.jitter_seed ^ 0x5e551095ULL;
  for (int attempt = 0;; ++attempt) {
    sqlts::Status st = run_session();
    if (st.ok()) return 0;
    if (output_started || attempt >= retry.retries ||
        !sqlts::IsTransientNetworkError(st)) {
      return Fail(st);
    }
    std::fprintf(stderr, "transient failure (%s), reconnecting...\n",
                 st.ToString().c_str());
    sqlts::SleepForBackoff(attempt, retry, &rng);
  }
}
