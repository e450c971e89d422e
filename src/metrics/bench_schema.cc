#include "metrics/bench_schema.hh"

#include <cmath>

#include "metrics/json.hh"

namespace pagesim
{

namespace
{

/** Collects problems while walking the document. */
struct Checker
{
    std::vector<std::string> problems;

    void
    fail(const std::string &path, const std::string &what)
    {
        problems.push_back(path + ": " + what);
    }

    /** Member lookup that reports absence; nullptr when missing. */
    const JsonValue *
    member(const JsonValue &obj, const std::string &path,
           const std::string &key)
    {
        const JsonValue *v = obj.find(key);
        if (v == nullptr)
            fail(path + "." + key, "missing");
        return v;
    }

    const JsonValue *
    object(const JsonValue &obj, const std::string &path,
           const std::string &key)
    {
        const JsonValue *v = member(obj, path, key);
        if (v != nullptr && !v->isObject()) {
            fail(path + "." + key, "not an object");
            return nullptr;
        }
        return v;
    }

    /** A finite number strictly greater than @p floor. */
    void
    positiveNumber(const JsonValue &obj, const std::string &path,
                   const std::string &key, double floor = 0.0)
    {
        const JsonValue *v = member(obj, path, key);
        if (v == nullptr)
            return;
        if (!v->isNumber()) {
            fail(path + "." + key, "not a number");
            return;
        }
        if (!std::isfinite(v->number) || v->number <= floor) {
            fail(path + "." + key,
                 "expected a finite value > " + std::to_string(floor) +
                     ", got " + std::to_string(v->number));
        }
    }

    /** A number key that merely has to exist and be finite. */
    void
    finiteNumber(const JsonValue &obj, const std::string &path,
                 const std::string &key)
    {
        const JsonValue *v = member(obj, path, key);
        if (v == nullptr)
            return;
        if (!v->isNumber() || !std::isfinite(v->number))
            fail(path + "." + key, "not a finite number");
    }

    void
    nonEmptyString(const JsonValue &obj, const std::string &path,
                   const std::string &key)
    {
        const JsonValue *v = member(obj, path, key);
        if (v == nullptr)
            return;
        if (!v->isString() || v->str.empty())
            fail(path + "." + key, "not a non-empty string");
    }

    /** A boolean; optionally required to hold a specific value. */
    void
    boolean(const JsonValue &obj, const std::string &path,
            const std::string &key, const bool *required = nullptr)
    {
        const JsonValue *v = member(obj, path, key);
        if (v == nullptr)
            return;
        if (v->kind != JsonValue::Kind::Bool) {
            fail(path + "." + key, "not a boolean");
            return;
        }
        if (required != nullptr && v->boolean != *required) {
            fail(path + "." + key,
                 std::string("must be ") +
                     (*required ? "true" : "false"));
        }
    }

    /** legacy/word (or legacy/wheel) throughput pair plus speedup. */
    void
    throughputPair(const JsonValue &obj, const std::string &path,
                   const char *baseline_key, const char *fast_key)
    {
        positiveNumber(obj, path, baseline_key);
        positiveNumber(obj, path, fast_key);
        positiveNumber(obj, path, "speedup");
    }
};

} // namespace

std::vector<std::string>
validateBenchCore(const std::string &json_text)
{
    Checker c;
    JsonValue doc;
    std::string error;
    if (!jsonParse(json_text, doc, error)) {
        c.fail("document", "JSON parse error: " + error);
        return c.problems;
    }
    if (!doc.isObject()) {
        c.fail("document", "not a JSON object");
        return c.problems;
    }

    c.positiveNumber(doc, "", "schema_version", 0.5);
    if (const JsonValue *host = c.object(doc, "", "host"))
        c.positiveNumber(*host, "host", "cores");

    if (const JsonValue *eq = c.object(doc, "", "event_queue")) {
        c.positiveNumber(*eq, "event_queue", "events");
        c.positiveNumber(*eq, "event_queue", "outstanding");
        c.positiveNumber(*eq, "event_queue", "speedup");
        for (const char *section : {"hold", "churn"}) {
            if (const JsonValue *s =
                    c.object(*eq, "event_queue", section)) {
                c.throughputPair(*s,
                                 std::string("event_queue.") + section,
                                 "legacy_heap_events_per_sec",
                                 "wheel_events_per_sec");
            }
        }
    }

    if (const JsonValue *scan = c.object(doc, "", "aging_scan")) {
        c.positiveNumber(*scan, "aging_scan", "pages");
        c.positiveNumber(*scan, "aging_scan", "passes");
        c.positiveNumber(*scan, "aging_scan", "geomean_speedup");
        if (const JsonValue *pats =
                c.object(*scan, "aging_scan", "patterns")) {
            for (const char *key :
                 {"dense", "sparse", "ten_pct_accessed"}) {
                if (const JsonValue *p =
                        c.object(*pats, "aging_scan.patterns", key)) {
                    c.throughputPair(
                        *p, std::string("aging_scan.patterns.") + key,
                        "reference_ptes_per_sec", "word_ptes_per_sec");
                }
            }
        }
    }

    if (const JsonValue *trial = c.object(doc, "", "trial")) {
        c.nonEmptyString(*trial, "trial", "cell");
        c.nonEmptyString(*trial, "trial", "scale");
        c.positiveNumber(*trial, "trial", "wall_seconds");
    }

    if (const JsonValue *mo = c.object(doc, "", "metrics_overhead")) {
        c.positiveNumber(*mo, "metrics_overhead", "detached_seconds");
        c.positiveNumber(*mo, "metrics_overhead", "counters_seconds");
        c.positiveNumber(*mo, "metrics_overhead",
                         "full_sampler_seconds");
        // Overheads may legitimately measure below the noise floor
        // (slightly negative); they only have to be finite.
        c.finiteNumber(*mo, "metrics_overhead",
                       "counters_overhead_pct");
        c.finiteNumber(*mo, "metrics_overhead",
                       "full_sampler_overhead_pct");
    }

    if (const JsonValue *big = c.object(doc, "", "big_machine")) {
        c.positiveNumber(*big, "big_machine", "pages");
        if (const JsonValue *scan =
                c.object(*big, "big_machine", "scan")) {
            c.positiveNumber(*scan, "big_machine.scan", "workers");
            c.positiveNumber(*scan, "big_machine.scan", "passes");
            c.throughputPair(*scan, "big_machine.scan",
                             "serial_ptes_per_sec",
                             "sharded_ptes_per_sec");
        }
        if (const JsonValue *trial =
                c.object(*big, "big_machine", "trial")) {
            c.nonEmptyString(*trial, "big_machine.trial", "cell");
            c.nonEmptyString(*trial, "big_machine.trial", "scale");
            c.positiveNumber(*trial, "big_machine.trial",
                             "wall_seconds");
            c.positiveNumber(*trial, "big_machine.trial",
                             "faults_per_sec");
        }
        // Serial and sharded scans of the same machine must report
        // identical TrialResult fingerprints; a divergent document
        // is invalid, not merely slow.
        const bool required = true;
        c.boolean(*big, "big_machine", "fingerprint_identity",
                  &required);
    }

    if (const JsonValue *sweep = c.object(doc, "", "sweep")) {
        c.positiveNumber(*sweep, "sweep", "cells");
        c.positiveNumber(*sweep, "sweep", "trials_per_cell");
        c.positiveNumber(*sweep, "sweep", "serial_cells_seconds");
        c.positiveNumber(*sweep, "sweep", "pooled_sweep_seconds");
        c.positiveNumber(*sweep, "sweep", "speedup");
        c.boolean(*sweep, "sweep", "degraded_to_serial");
        const bool required = true;
        c.boolean(*sweep, "sweep", "identical_results", &required);
    }

    if (const JsonValue *ckpt = c.object(doc, "", "checkpoint")) {
        if (const JsonValue *sweep =
                c.object(*ckpt, "checkpoint", "sweep")) {
            c.positiveNumber(*sweep, "checkpoint.sweep", "cells");
            c.positiveNumber(*sweep, "checkpoint.sweep",
                             "trials_per_cell");
            c.positiveNumber(*sweep, "checkpoint.sweep",
                             "boundary_refs");
            c.positiveNumber(*sweep, "checkpoint.sweep",
                             "cold_seconds");
            c.positiveNumber(*sweep, "checkpoint.sweep",
                             "warm_seconds");
            c.positiveNumber(*sweep, "checkpoint.sweep", "speedup");
            // A warm sweep that restores to different results is a
            // broken checkpoint, not a benchmark artifact.
            const bool required = true;
            c.boolean(*sweep, "checkpoint.sweep", "identical_results",
                      &required);
        }
        if (const JsonValue *ff = c.object(
                *ckpt, "checkpoint", "big64m_first_measurement")) {
            c.positiveNumber(*ff, "checkpoint.big64m_first_measurement",
                             "boundary_refs");
            c.positiveNumber(*ff, "checkpoint.big64m_first_measurement",
                             "full_detail_seconds");
            c.positiveNumber(*ff, "checkpoint.big64m_first_measurement",
                             "functional_seconds");
            c.positiveNumber(*ff, "checkpoint.big64m_first_measurement",
                             "speedup");
        }
    }

    if (const JsonValue *ser = c.object(doc, "", "serializer")) {
        c.nonEmptyString(*ser, "serializer", "estimator");
        c.positiveNumber(*ser, "serializer", "frames");
        c.positiveNumber(*ser, "serializer", "spaces");
        c.positiveNumber(*ser, "serializer", "payload_mb");
        c.positiveNumber(*ser, "serializer",
                         "per_frame_space_id_seconds");
        c.positiveNumber(*ser, "serializer", "save_seconds");
        c.positiveNumber(*ser, "serializer", "save_gb_per_sec");
        c.positiveNumber(*ser, "serializer", "restore_seconds");
        c.positiveNumber(*ser, "serializer", "restore_gb_per_sec");
        c.positiveNumber(*ser, "serializer", "speedup_vs_per_frame");
        if (const JsonValue *img =
                c.object(*ser, "serializer", "image")) {
            c.nonEmptyString(*img, "serializer.image", "cell");
            c.nonEmptyString(*img, "serializer.image", "scale");
            c.nonEmptyString(*img, "serializer.image", "estimator");
            c.positiveNumber(*img, "serializer.image", "boundary_refs");
            c.positiveNumber(*img, "serializer.image", "image_mb");
            c.positiveNumber(*img, "serializer.image", "capture_seconds");
            c.positiveNumber(*img, "serializer.image",
                             "capture_gb_per_sec");
            c.positiveNumber(*img, "serializer.image", "restore_seconds");
            c.positiveNumber(*img, "serializer.image",
                             "restore_gb_per_sec");
            // A whole-image capture or restore that failed makes the
            // throughput meaningless; the document is invalid.
            const bool required = true;
            c.boolean(*img, "serializer.image", "round_trip_ok",
                      &required);
        }
    }

    return c.problems;
}

} // namespace pagesim
