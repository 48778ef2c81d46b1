#ifndef SHARK_SERVER_SERVER_H_
#define SHARK_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "rdd/job_manager.h"
#include "server/http.h"
#include "server/query_log.h"
#include "sql/session.h"

namespace shark {

/// Multi-session SQL front-end: accepts TCP connections, one session per
/// connection, and multiplexes their queries onto one simulated cluster
/// through the streaming JobManager (admission control + fair inter-query
/// scheduling included).
///
/// Wire protocol — newline-terminated lines, text only:
///
///   client -> server
///     QUERY <sql>          run one statement (server assigns the query id)
///     QUERYID <id> <sql>   run one statement under a client-chosen trace id
///     SET WEIGHT <w>       fair-share weight for this session's queries
///     SET MEMDEMAND <n>    declared admission demand in bytes (0 = bypass)
///     STATS                session + server counters and live SLO quantiles
///     QUIT                 close the connection
///
///   server -> client
///     OK <query_id> <nrows> <ncols> <virtual_seconds> <queue_delay>
///       ...nrows lines of tab-separated values...                 (QUERY)
///     END
///     OK                                                    (SET success)
///     STAT <key> <value>  ... END                           (STATS)
///     ERR <one-line message>                                (any failure)
///
/// Observability plane (Options::obs_port >= 0): a second HTTP listener
/// serving GET /healthz, /metrics (Prometheus text), /queries?n=K (query
/// log), /queries/<id> (detail incl. chrome trace + EXPLAIN ANALYZE for
/// slow queries) and /top (plain-text live sessions/queries table). Every
/// query — in flight or completed — is addressable by its query id.
class SharkServer {
 public:
  struct Options {
    /// TCP port to listen on; 0 picks an ephemeral port (see port()).
    int port = 0;
    /// Forwarded to JobManager: max queries in flight; 0 = unlimited.
    int max_concurrent = 0;
    /// Per-connection query quota; further QUERYs get an ERR. 0 = unlimited.
    uint64_t max_queries_per_connection = 0;
    /// HTTP observability port: 0 picks an ephemeral port (see obs_port()),
    /// < 0 disables the listener.
    int obs_port = 0;
    /// Queries whose virtual latency reaches this are promoted to the
    /// slow-query log with their EXPLAIN ANALYZE rendering; < 0 disables.
    double slow_query_virtual_seconds = 1.0;
    /// Query-log ring capacity and optional JSONL sink path.
    size_t query_log_capacity = 256;
    std::string query_log_path;
  };

  SharkServer(std::shared_ptr<SharkSession> session, Options options);
  ~SharkServer();

  SharkServer(const SharkServer&) = delete;
  SharkServer& operator=(const SharkServer&) = delete;

  /// Binds, listens and spawns the accept loop. Queries are served until
  /// Stop().
  Status Start();

  /// The bound SQL port (useful with Options::port == 0).
  int port() const { return port_; }
  /// The bound observability port; -1 when the listener is disabled.
  int obs_port() const { return obs_ ? obs_->port() : -1; }

  /// Stops accepting, severs live connections, drains submitted queries.
  void Stop();

  /// Total queries received across all connections (including rejected).
  uint64_t total_queries() const { return total_queries_; }

  const QueryLog& query_log() const { return qlog_; }

 private:
  struct SessionState {
    uint64_t queries = 0;  // received
    uint64_t ok = 0;
    uint64_t errors = 0;   // failed or rejected
    double weight = 1.0;
    uint64_t mem_demand_bytes = 0;
    bool live = true;      // connection still open
  };

  void AcceptLoop();
  /// Joins the threads of connections that have closed since the last call.
  void ReapFinishedConnections();
  void ServeConnection(int fd, uint64_t conn_id);
  bool HandleQuery(int fd, uint64_t conn_id, const std::string& client_qid,
                   const std::string& sql);
  bool HandleStats(int fd, uint64_t conn_id);
  void HandleObs(const HttpRequest& req, HttpResponse* resp);
  std::string RenderTop();

  std::shared_ptr<SharkSession> session_;
  Options options_;
  JobManager jobs_;
  QueryLog qlog_;
  std::unique_ptr<HttpListener> obs_;

  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;

  std::mutex mu_;
  std::map<uint64_t, std::thread> conn_threads_;  // conn_id ->, guarded by mu_
  std::vector<uint64_t> finished_conns_;          // not yet joined, guarded
  std::set<int> live_fds_;                        // guarded by mu_
  uint64_t next_conn_id_ = 1;                     // guarded by mu_
  // conn_threads_.size(), read by the shark_server_connection_threads gauge;
  // shared so the gauge stays valid if the context outlives the server.
  std::shared_ptr<std::atomic<size_t>> conn_thread_count_ =
      std::make_shared<std::atomic<size_t>>(0);

  std::mutex sessions_mu_;
  std::map<uint64_t, SessionState> sessions_;  // conn_id ->, guarded

  std::atomic<uint64_t> next_query_seq_{1};
  std::atomic<uint64_t> total_queries_{0};
  std::atomic<uint64_t> total_ok_{0};
  std::atomic<uint64_t> total_errors_{0};
};

}  // namespace shark

#endif  // SHARK_SERVER_SERVER_H_
