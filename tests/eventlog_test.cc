// Unit tests for the structured event log: enable gating, ring eviction,
// live sinks, JSONL export (including escaping round-trips through the
// JSON parser), and history replay.

#include <gtest/gtest.h>

#include "obs/eventlog.h"
#include "obs/json.h"

namespace screp::obs {
namespace {

Event MakeRoute(TxnId txn, SimTime at) {
  Event e;
  e.kind = EventKind::kRoute;
  e.txn = txn;
  e.at = at;
  e.replica = 1;
  e.required_version = 3;
  e.satisfied_version = 5;
  return e;
}

TEST(EventLogTest, DisabledLogDropsEverything) {
  EventLog log(8);
  int sink_calls = 0;
  log.AddSink([&sink_calls](const Event&) { ++sink_calls; });
  log.Append(MakeRoute(1, 10));
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.appended(), 0);
  EXPECT_EQ(sink_calls, 0);
}

TEST(EventLogTest, RingEvictsOldestButSinksSeeEveryEvent) {
  EventLog log(3);
  log.set_enabled(true);
  std::vector<TxnId> seen;
  log.AddSink([&seen](const Event& e) { seen.push_back(e.txn); });
  for (TxnId t = 1; t <= 5; ++t) log.Append(MakeRoute(t, t * 10));

  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.appended(), 5);
  EXPECT_EQ(log.dropped(), 2);
  const std::vector<Event> events = log.Events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].txn, 3);  // oldest retained
  EXPECT_EQ(events[2].txn, 5);
  EXPECT_EQ(seen, (std::vector<TxnId>{1, 2, 3, 4, 5}));
}

TEST(EventLogTest, ZeroCapacityKeepsOnlyTheNewestEvent) {
  EventLog log(0);
  log.set_enabled(true);
  EXPECT_EQ(log.capacity(), 1u);
  for (TxnId t = 1; t <= 3; ++t) log.Append(MakeRoute(t, t * 10));
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log.Events()[0].txn, 3);
  EXPECT_EQ(log.dropped(), 2);
  EXPECT_EQ(log.appended(), 3);
}

TEST(EventLogTest, GrowsToCapacityThenWrapsOldestFirst) {
  EventLog log(40);
  log.set_enabled(true);
  int sink_calls = 0;
  log.AddSink([&sink_calls](const Event&) { ++sink_calls; });
  for (TxnId t = 1; t <= 40; ++t) log.Append(MakeRoute(t, t));
  EXPECT_EQ(log.size(), 40u);
  EXPECT_EQ(log.dropped(), 0);
  for (TxnId t = 41; t <= 100; ++t) log.Append(MakeRoute(t, t));
  EXPECT_EQ(log.size(), 40u);
  EXPECT_EQ(log.capacity(), 40u);
  EXPECT_EQ(log.dropped(), 60);
  EXPECT_EQ(log.appended(), 100);
  EXPECT_EQ(sink_calls, 100);
  const std::vector<Event> events = log.Events();
  ASSERT_EQ(events.size(), 40u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].txn, static_cast<TxnId>(61 + i));
  }
  // Every export walks the same oldest-first order.
  const std::string jsonl = log.ToJsonl();
  EXPECT_EQ(jsonl.substr(0, jsonl.find('\n')), events.front().ToJson());
}

TEST(EventLogTest, JsonlLinesParseAndEscapeDetails) {
  EventLog log(8);
  log.set_enabled(true);
  Event abort;
  abort.kind = EventKind::kCertVerdict;
  abort.at = 42;
  abort.txn = 7;
  abort.committed = false;
  abort.conflict_version = 3;
  abort.conflict_txn = 5;
  abort.detail = "ww\"quote\\and\nnewline";
  log.Append(abort);
  log.Append(MakeRoute(8, 50));

  const std::string jsonl = log.ToJsonl();
  std::vector<std::string> lines;
  size_t pos = 0;
  while (pos < jsonl.size()) {
    const size_t nl = jsonl.find('\n', pos);
    lines.push_back(jsonl.substr(pos, nl - pos));
    pos = nl + 1;
  }
  ASSERT_EQ(lines.size(), 2u);
  // Every line must survive a strict parse, with the escaped detail
  // round-tripping to the original string.
  Result<JsonValue> doc = JsonValue::Parse(lines[0]);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->Find("kind")->str(), "cert");
  ASSERT_NE(doc->Find("reason"), nullptr);
  EXPECT_EQ(doc->Find("reason")->str(), "ww\"quote\\and\nnewline");
  ASSERT_NE(doc->Find("conflict_version"), nullptr);
  EXPECT_DOUBLE_EQ(doc->Find("conflict_version")->number(), 3.0);
  Result<JsonValue> route = JsonValue::Parse(lines[1]);
  ASSERT_TRUE(route.ok()) << route.status().ToString();
  EXPECT_EQ(route->Find("kind")->str(), "route");
}

TEST(EventLogTest, ReplayHistoryRebuildsTxnRecords) {
  EventLog log(8);
  log.set_enabled(true);
  log.Append(MakeRoute(1, 10));  // non-finish events are skipped

  Event fin;
  fin.kind = EventKind::kTxnFinished;
  fin.at = 90;
  fin.txn = 1;
  fin.session = 2;
  fin.replica = 3;
  fin.snapshot = 4;
  fin.commit_version = 5;
  fin.committed = true;
  fin.read_only = false;
  fin.submit_time = 10;
  fin.start_time = 20;
  fin.table_set = {0, 1};
  fin.tables_written = {1};
  fin.keys_written = {{1, 77}};
  log.Append(fin);

  const History history = log.ReplayHistory();
  ASSERT_EQ(history.size(), 1u);
  const TxnRecord& r = history.records()[0];
  EXPECT_EQ(r.id, 1);
  EXPECT_EQ(r.session, 2);
  EXPECT_EQ(r.replica, 3);
  EXPECT_EQ(r.snapshot, 4);
  EXPECT_EQ(r.commit_version, 5);
  EXPECT_TRUE(r.committed);
  EXPECT_FALSE(r.read_only);
  EXPECT_EQ(r.submit_time, 10);
  EXPECT_EQ(r.start_time, 20);
  EXPECT_EQ(r.ack_time, 90);
  EXPECT_EQ(r.table_set, (std::vector<TableId>{0, 1}));
  EXPECT_EQ(r.tables_written, (std::vector<TableId>{1}));
  ASSERT_EQ(r.keys_written.size(), 1u);
  EXPECT_EQ(r.keys_written[0], (std::pair<TableId, int64_t>{1, 77}));
}

TEST(EventLogTest, KindAndWaitCauseNamesAreStable) {
  EXPECT_STREQ(EventKindName(EventKind::kBeginAdmitted), "begin");
  EXPECT_STREQ(EventKindName(EventKind::kFailover), "failover");
  EXPECT_STREQ(WaitCauseName(WaitCause::kSystemVersion), "system_version");
  EXPECT_STREQ(WaitCauseName(WaitCause::kEagerGlobal), "eager_global");
}

}  // namespace
}  // namespace screp::obs
