#include "pinned.hh"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "metrics/export.hh"
#include "metrics/json.hh"

namespace pagesim::e2e
{

const char *
pinnedPath()
{
    return PAGESIM_BENCH_PINNED;
}

namespace
{

std::string
seedKey(std::uint64_t seed)
{
    return "seed" + std::to_string(seed);
}

bool
parseHex(const std::string &text, std::uint64_t &out)
{
    if (text.size() != 16)
        return false;
    out = 0;
    for (const char ch : text) {
        out <<= 4;
        if (ch >= '0' && ch <= '9')
            out |= static_cast<std::uint64_t>(ch - '0');
        else if (ch >= 'a' && ch <= 'f')
            out |= static_cast<std::uint64_t>(ch - 'a' + 10);
        else
            return false;
    }
    return true;
}

} // namespace

bool
Pinned::load(const std::string &path, std::string &error)
{
    std::ifstream in(path);
    if (!in) {
        error = "cannot read " + path;
        return false;
    }
    std::stringstream text;
    text << in.rdbuf();
    JsonValue root;
    if (!jsonParse(text.str(), root, error)) {
        error = path + ": " + error;
        return false;
    }
    const JsonValue *workloads = root.find("workloads");
    if (workloads == nullptr || !workloads->isObject()) {
        error = path + ": no \"workloads\" object";
        return false;
    }
    cells_.clear();
    for (const auto &[wname, cells] : workloads->members) {
        if (!cells.isObject()) {
            error = path + ": workload " + wname + " is not an object";
            return false;
        }
        for (const auto &[label, entry] : cells.members) {
            const std::string where = path + ": " + wname + " / " + label;
            CellPins pins;
            for (const std::uint64_t seed : kPinnedSeeds) {
                const JsonValue *list = entry.find(seedKey(seed));
                if (list == nullptr)
                    continue;
                if (!list->isArray()) {
                    error = where + ": " + seedKey(seed) + " is not a list";
                    return false;
                }
                std::vector<std::uint64_t> &fps = pins[seed];
                for (const JsonValue &item : list->items) {
                    std::uint64_t fp = 0;
                    if (!item.isString() || !parseHex(item.str, fp)) {
                        error = where + ": bad fingerprint in " +
                                seedKey(seed);
                        return false;
                    }
                    fps.push_back(fp);
                }
            }
            cells_[wname][label] = std::move(pins);
        }
    }
    return true;
}

bool
Pinned::save(const std::string &path) const
{
    std::ofstream out(path);
    out << "{\n  \"format\": 1,\n  \"workloads\": {";
    const char *wsep = "\n";
    for (const auto &[wname, cells] : cells_) {
        out << wsep << "    \"" << jsonEscape(wname) << "\": {";
        wsep = ",\n";
        const char *csep = "\n";
        for (const auto &[label, pins] : cells) {
            out << csep << "      \"" << jsonEscape(label) << "\": {";
            csep = ",\n";
            const char *ssep = "";
            for (const auto &[seed, fps] : pins) {
                out << ssep << "\"" << seedKey(seed) << "\": [";
                ssep = ", ";
                for (std::size_t i = 0; i < fps.size(); ++i) {
                    char hex[17];
                    std::snprintf(hex, sizeof hex, "%016" PRIx64, fps[i]);
                    out << (i ? ", \"" : "\"") << hex << '"';
                }
                out << ']';
            }
            out << '}';
        }
        out << "\n    }";
    }
    out << "\n  }\n}\n";
    out.close();
    return static_cast<bool>(out);
}

const Pinned::CellPins *
Pinned::find(const BenchWorkload &w, const Cell &cell) const
{
    const auto wit = cells_.find(w.name);
    if (wit == cells_.end())
        return nullptr;
    const auto cit = wit->second.find(cell.label);
    return cit == wit->second.end() ? nullptr : &cit->second;
}

std::string
Pinned::missingCell(const BenchWorkload &w) const
{
    for (const Cell &cell : w.cells)
        if (find(w, cell) == nullptr)
            return cell.label;
    return "";
}

bool
Pinned::seedPinned(const BenchWorkload &w, std::uint64_t seed) const
{
    for (const Cell &cell : w.cells) {
        const CellPins *pins = find(w, cell);
        if (pins == nullptr || !pins->count(seed))
            return false;
    }
    return true;
}

Pinned::Verdict
Pinned::check(const BenchWorkload &w, const Cell &cell, std::uint64_t seed,
              unsigned round, std::uint64_t fingerprint) const
{
    const CellPins *pins = find(w, cell);
    if (pins == nullptr)
        return Verdict::Unpinned;
    const auto it = pins->find(seed);
    if (it == pins->end() || round >= it->second.size())
        return Verdict::Unpinned;
    return it->second[round] == fingerprint ? Verdict::Match
                                            : Verdict::Mismatch;
}

void
Pinned::set(const BenchWorkload &w, const Cell &cell, std::uint64_t seed,
            std::vector<std::uint64_t> fingerprints)
{
    cells_[w.name][cell.label][seed] = std::move(fingerprints);
}

} // namespace pagesim::e2e
