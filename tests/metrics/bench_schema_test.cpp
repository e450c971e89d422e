/**
 * @file
 * Tests for the BENCH_core.json schema validator: a known-good
 * document passes, and each class of corruption (missing field, bad
 * type, non-positive speedup, diverged sweep) is reported with a
 * path-qualified message.
 */

#include <gtest/gtest.h>

#include <string>

#include "metrics/bench_schema.hh"

namespace pagesim
{
namespace
{

/** A minimal document with every field perf_core emits. */
std::string
goodDocument()
{
    return R"({
  "schema_version": 1,
  "host": {"cores": 8},
  "event_queue": {
    "events": 3000000,
    "samples": 3,
    "estimator": "median of 3 runs per queue",
    "shapes": {
      "outstanding_16": {
        "outstanding": 16,
        "hold": {"legacy_heap_events_per_sec": 9000000,
                 "flat_heap_events_per_sec": 30000000, "speedup": 3.33},
        "churn": {"legacy_heap_events_per_sec": 3000000,
                  "flat_heap_events_per_sec": 5000000, "speedup": 1.66}
      },
      "outstanding_64": {
        "outstanding": 64,
        "hold": {"legacy_heap_events_per_sec": 8000000,
                 "flat_heap_events_per_sec": 20000000, "speedup": 2.5},
        "churn": {"legacy_heap_events_per_sec": 7000000,
                  "flat_heap_events_per_sec": 14000000, "speedup": 2.0}
      },
      "outstanding_2048": {
        "outstanding": 2048,
        "hold": {"legacy_heap_events_per_sec": 4000000,
                 "flat_heap_events_per_sec": 7000000, "speedup": 1.75},
        "churn": {"legacy_heap_events_per_sec": 3500000,
                  "flat_heap_events_per_sec": 6000000, "speedup": 1.71}
      }
    }
  },
  "aging_scan": {
    "pages": 65536,
    "passes": 24,
    "patterns": {
      "dense": {"word_ptes_per_sec": 400000000},
      "sparse": {"word_ptes_per_sec": 900000000},
      "ten_pct_accessed": {"word_ptes_per_sec": 600000000}
    }
  },
  "trial": {
    "cell": "TPC-H/MG-LRU/SSD/50%",
    "scale": "Small",
    "estimator": "min of 5",
    "wall_seconds": 0.01
  },
  "metrics_overhead": {
    "cell": "TPC-H/MG-LRU/SSD/50%",
    "scale": "Small",
    "estimator": "min of 175 interleaved rounds, process CPU time",
    "detached_seconds": 0.009,
    "counters_seconds": 0.0091,
    "full_sampler_seconds": 0.0093,
    "counters_overhead_pct": 0.4,
    "full_sampler_overhead_pct": -1.2
  },
  "big_machine": {
    "pages": 67108864,
    "scan": {
      "passes": 3,
      "serial_ptes_per_sec": 300000000
    },
    "trial": {
      "cell": "YCSB-A/MG-LRU/SSD/50%",
      "scale": "Big64M",
      "wall_seconds": 106.4,
      "faults_per_sec": 316000
    }
  },
  "sweep": {
    "cells": 6,
    "trials_per_cell": 3,
    "estimator": "min of 3 alternating rounds",
    "serial_cells_seconds": 0.2,
    "pooled_sweep_seconds": 0.1,
    "speedup": 2.0,
    "degraded_to_serial": false,
    "identical_results": true
  },
  "checkpoint": {
    "sweep": {
      "cells": 4,
      "trials_per_cell": 3,
      "boundary_refs": 80000,
      "estimator": "min of 3 rounds",
      "cold_seconds": 0.5,
      "warm_seconds": 0.1,
      "speedup": 5.0,
      "identical_results": true
    },
    "big64m_first_measurement": {
      "boundary_refs": 50000000,
      "full_detail_seconds": 60.0
    }
  },
  "serializer": {
    "frames": 8388608,
    "spaces": 24,
    "payload_mb": 335.5,
    "packed_mb": 40.2,
    "estimator": "min of 5",
    "per_frame_space_id_seconds": 0.58,
    "save_seconds": 0.06,
    "save_gb_per_sec": 5.5,
    "restore_seconds": 0.05,
    "restore_gb_per_sec": 6.5,
    "speedup_vs_per_frame": 10.6,
    "image": {
      "cell": "YCSB-A/MG-LRU/SSD/50%",
      "scale": "Big1M",
      "boundary_refs": 1250000,
      "image_mb": 13.8,
      "unpacked_mb": 33.9,
      "estimator": "min of 5",
      "capture_seconds": 0.03,
      "capture_gb_per_sec": 1.1,
      "restore_seconds": 0.012,
      "restore_gb_per_sec": 2.8,
      "round_trip_ok": true
    },
    "clock_image": {
      "cell": "YCSB-A/Clock/SSD/50%",
      "scale": "Big1M",
      "boundary_refs": 1250000,
      "image_mb": 9.3,
      "unpacked_mb": 34.2,
      "estimator": "min of 5",
      "capture_seconds": 0.025,
      "capture_gb_per_sec": 1.4,
      "restore_seconds": 0.02,
      "restore_gb_per_sec": 1.7,
      "round_trip_ok": true
    }
  },
  "trial_memory": {
    "samples": 3,
    "estimator": "ru_maxrss of a fresh child process per sample",
    "ssd": {
      "cell": "YCSB-A/MG-LRU/SSD/50%",
      "scale": "Big1M",
      "peak_rss_mb": {"min": 120.5, "median": 121.0, "max": 123.2},
      "peak_queue_depth": 41000
    },
    "zram": {
      "cell": "YCSB-A/MG-LRU/ZRAM/50%",
      "scale": "Big1M",
      "peak_rss_mb": {"min": 90.1, "median": 90.4, "max": 91.0},
      "peak_queue_depth": 0
    }
  }
})";
}

/** Replace the first occurrence of @p from with @p to. */
std::string
patch(std::string doc, const std::string &from, const std::string &to)
{
    const std::size_t pos = doc.find(from);
    EXPECT_NE(pos, std::string::npos) << from;
    doc.replace(pos, from.size(), to);
    return doc;
}

/** The single problem message, which must mention @p path. */
void
expectOneProblemAt(const std::vector<std::string> &problems,
                   const std::string &path)
{
    ASSERT_EQ(problems.size(), 1u)
        << (problems.empty() ? "no problems" : problems.front());
    EXPECT_NE(problems.front().find(path), std::string::npos)
        << problems.front();
}

TEST(BenchSchema, GoodDocumentPasses)
{
    const auto problems = validateBenchCore(goodDocument());
    EXPECT_TRUE(problems.empty())
        << problems.size() << " problems, first: " << problems.front();
}

TEST(BenchSchema, RejectsUnparsableText)
{
    const auto problems = validateBenchCore("{not json");
    ASSERT_FALSE(problems.empty());
    EXPECT_NE(problems.front().find("parse"), std::string::npos);
}

TEST(BenchSchema, RejectsNonObjectDocument)
{
    const auto problems = validateBenchCore("[1, 2, 3]");
    ASSERT_EQ(problems.size(), 1u);
    EXPECT_NE(problems.front().find("not a JSON object"),
              std::string::npos);
}

TEST(BenchSchema, DetectsMissingSection)
{
    const auto problems = validateBenchCore(patch(
        goodDocument(), "\"aging_scan\"", "\"renamed_scan\""));
    ASSERT_FALSE(problems.empty());
    EXPECT_NE(problems.front().find("aging_scan"), std::string::npos);
}

TEST(BenchSchema, DetectsMissingField)
{
    const auto problems = validateBenchCore(patch(
        goodDocument(), "\"wall_seconds\"", "\"walls_seconds\""));
    expectOneProblemAt(problems, "trial.wall_seconds");
}

TEST(BenchSchema, DetectsNonPositiveSpeedup)
{
    const auto problems = validateBenchCore(
        patch(goodDocument(), "\"speedup\": 1.66",
              "\"speedup\": 0"));
    expectOneProblemAt(problems,
                       "event_queue.shapes.outstanding_16.churn.speedup");
}

TEST(BenchSchema, DetectsMissingEventQueueShapeField)
{
    // The queue is timed at 16, 64 and 2,048 outstanding events, each
    // against the legacy replica; a record carrying the old
    // wheel_events_per_sec name (or dropping a shape) is malformed.
    expectOneProblemAt(
        validateBenchCore(patch(goodDocument(),
                                "\"flat_heap_events_per_sec\": 20000000",
                                "\"wheel_events_per_sec\": 20000000")),
        "event_queue.shapes.outstanding_64.hold.flat_heap_events_per_sec");
    expectOneProblemAt(
        validateBenchCore(patch(goodDocument(), "\"outstanding_2048\"",
                                "\"outstanding_4096\"")),
        "event_queue.shapes.outstanding_2048");
}

TEST(BenchSchema, DetectsZeroScanRate)
{
    const auto problems = validateBenchCore(
        patch(goodDocument(), "\"word_ptes_per_sec\": 400000000",
              "\"word_ptes_per_sec\": 0"));
    expectOneProblemAt(problems,
                       "aging_scan.patterns.dense.word_ptes_per_sec");
}

TEST(BenchSchema, DetectsNegativeThroughput)
{
    const auto problems = validateBenchCore(
        patch(goodDocument(), "\"word_ptes_per_sec\": 900000000",
              "\"word_ptes_per_sec\": -1"));
    expectOneProblemAt(problems,
                       "aging_scan.patterns.sparse.word_ptes_per_sec");
}

TEST(BenchSchema, DetectsWrongFieldType)
{
    const auto problems = validateBenchCore(
        patch(goodDocument(), "\"wall_seconds\": 0.01",
              "\"wall_seconds\": \"fast\""));
    expectOneProblemAt(problems, "trial.wall_seconds");
}

TEST(BenchSchema, DetectsDivergedSweep)
{
    const auto problems = validateBenchCore(
        patch(goodDocument(), "\"identical_results\": true",
              "\"identical_results\": false"));
    expectOneProblemAt(problems, "sweep.identical_results");
}

TEST(BenchSchema, DetectsMissingDegradedFlag)
{
    const auto problems = validateBenchCore(
        patch(goodDocument(), "\"degraded_to_serial\": false,", ""));
    expectOneProblemAt(problems, "sweep.degraded_to_serial");
}

TEST(BenchSchema, NegativeOverheadPctIsAllowed)
{
    // Below-noise-floor measurements are legitimately negative; only
    // non-finite values are malformed.
    const auto problems = validateBenchCore(
        patch(goodDocument(), "\"counters_overhead_pct\": 0.4",
              "\"counters_overhead_pct\": -0.8"));
    EXPECT_TRUE(problems.empty());
}

TEST(BenchSchema, DetectsMissingBigMachineScanField)
{
    const auto problems = validateBenchCore(
        patch(goodDocument(), "\"serial_ptes_per_sec\"",
              "\"cereal_ptes_per_sec\""));
    expectOneProblemAt(problems, "big_machine.scan.serial_ptes_per_sec");
}

TEST(BenchSchema, DetectsNonPositiveBigMachineWall)
{
    const auto problems = validateBenchCore(
        patch(goodDocument(), "\"wall_seconds\": 106.4",
              "\"wall_seconds\": 0"));
    expectOneProblemAt(problems, "big_machine.trial.wall_seconds");
}

TEST(BenchSchema, DetectsMissingCheckpointSection)
{
    const auto problems = validateBenchCore(patch(
        goodDocument(), "\"checkpoint\"", "\"checkpoints\""));
    ASSERT_FALSE(problems.empty());
    EXPECT_NE(problems.front().find("checkpoint"), std::string::npos);
}

TEST(BenchSchema, DetectsNonPositiveCheckpointSpeedup)
{
    const auto problems = validateBenchCore(
        patch(goodDocument(), "\"speedup\": 5.0", "\"speedup\": 0"));
    expectOneProblemAt(problems, "checkpoint.sweep.speedup");
}

TEST(BenchSchema, DetectsDivergedCheckpointRestore)
{
    // The checkpoint sweep's identity flag is the SECOND occurrence;
    // patch it via its unique neighbourhood.
    const auto problems = validateBenchCore(
        patch(goodDocument(), "\"speedup\": 5.0,\n      \"identical_results\": true",
              "\"speedup\": 5.0,\n      \"identical_results\": false"));
    expectOneProblemAt(problems, "checkpoint.sweep.identical_results");
}

TEST(BenchSchema, DetectsMissingFirstMeasurementField)
{
    const auto problems = validateBenchCore(
        patch(goodDocument(), "\"full_detail_seconds\"",
              "\"full_detail_minutes\""));
    expectOneProblemAt(
        problems, "checkpoint.big64m_first_measurement.full_detail_seconds");
}

TEST(BenchSchema, DetectsMissingSerializerSection)
{
    const auto problems = validateBenchCore(patch(
        goodDocument(), "\"serializer\"", "\"serialiser\""));
    ASSERT_FALSE(problems.empty());
    EXPECT_NE(problems.front().find("serializer"), std::string::npos);
}

TEST(BenchSchema, DetectsNonPositiveSerializerThroughput)
{
    const auto problems = validateBenchCore(
        patch(goodDocument(), "\"save_gb_per_sec\": 5.5",
              "\"save_gb_per_sec\": 0"));
    expectOneProblemAt(problems, "serializer.save_gb_per_sec");
}

TEST(BenchSchema, DetectsMissingImageCaptureThroughput)
{
    const auto problems = validateBenchCore(
        patch(goodDocument(), "\"capture_gb_per_sec\": 1.1,", ""));
    expectOneProblemAt(problems, "serializer.image.capture_gb_per_sec");
}

TEST(BenchSchema, DetectsNonPositiveImageRestoreThroughput)
{
    const auto problems = validateBenchCore(
        patch(goodDocument(), "\"restore_gb_per_sec\": 2.8",
              "\"restore_gb_per_sec\": 0"));
    expectOneProblemAt(problems, "serializer.image.restore_gb_per_sec");
}

TEST(BenchSchema, DetectsFailedImageRoundTrip)
{
    const auto problems = validateBenchCore(
        patch(goodDocument(), "\"round_trip_ok\": true",
              "\"round_trip_ok\": false"));
    expectOneProblemAt(problems, "serializer.image.round_trip_ok");
}

TEST(BenchSchema, DetectsImageNoSmallerThanItsLanes)
{
    const auto problems = validateBenchCore(
        patch(goodDocument(), "\"image_mb\": 13.8", "\"image_mb\": 33.9"));
    expectOneProblemAt(problems, "serializer.image.image_mb");
}

TEST(BenchSchema, DetectsMissingClockImage)
{
    const auto problems = validateBenchCore(
        patch(goodDocument(), "\"clock_image\"", "\"clock_img\""));
    expectOneProblemAt(problems, "serializer.clock_image");
}

TEST(BenchSchema, DetectsMissingOrZeroTrialMemoryField)
{
    expectOneProblemAt(
        validateBenchCore(patch(goodDocument(),
                                "\"peak_queue_depth\": 41000",
                                "\"peak_queue_depth\": 0")),
        "trial_memory.ssd.peak_queue_depth");
    expectOneProblemAt(
        validateBenchCore(patch(goodDocument(), "\"median\": 90.4",
                                "\"medium\": 90.4")),
        "trial_memory.zram.peak_rss_mb.median");
}

TEST(BenchSchema, ReportsMultipleProblems)
{
    std::string doc = goodDocument();
    doc = patch(doc, "\"wall_seconds\": 0.01", "\"wall_seconds\": 0");
    doc = patch(doc, "\"identical_results\": true",
                "\"identical_results\": false");
    const auto problems = validateBenchCore(doc);
    EXPECT_EQ(problems.size(), 2u);
}

} // namespace
} // namespace pagesim
