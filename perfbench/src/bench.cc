#include "bench.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "obs/json.hh"

namespace perfbench {

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

Digest &
Digest::bytes(const void *p, std::size_t n)
{
    const auto *b = static_cast<const unsigned char *>(p);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= b[i];
        h *= 1099511628211ull;
    }
    return *this;
}

Digest &
Digest::add(double x)
{
    std::uint64_t bits;
    std::memcpy(&bits, &x, sizeof bits);
    return add(bits);
}

Digest &
Digest::add(std::uint64_t x)
{
    return bytes(&x, sizeof x);
}

Digest &
Digest::add(const std::string &s)
{
    add(std::uint64_t(s.size()));
    return bytes(s.data(), s.size());
}

std::string
Digest::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", (unsigned long long)h);
    return buf;
}

int
Tracer::begin(const std::string &name, unsigned run)
{
    Span s;
    s.name = name;
    s.parent = open.empty() ? -1 : open.back();
    s.run = run;
    int id = int(spans.size());
    spans.push_back(std::move(s));
    open.push_back(id);
    // Stamp last, so the bookkeeping above is not charged to the span.
    spans.back().start = now();
    return id;
}

void
Tracer::end(int id)
{
    double t = now();
    spans[std::size_t(id)].end = t;
    open.pop_back();
}

std::map<std::string, double>
Tracer::selfTimes(unsigned run) const
{
    std::vector<double> childTime(spans.size(), 0.0);
    for (const auto &s : spans)
        if (s.run == run && s.parent >= 0)
            childTime[std::size_t(s.parent)] += s.end - s.start;
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans.size(); ++i)
        if (spans[i].run == run)
            self[spans[i].name] +=
                spans[i].end - spans[i].start - childTime[i];
    return self;
}

void
Tracer::write(const std::string &path) const
{
    std::ofstream out(path);
    for (const auto &s : spans) {
        wsc::obs::JsonWriter w;
        w.beginObject()
            .key("name").value(s.name)
            .key("start").value(s.start)
            .key("end").value(s.end)
            .key("parent").value(double(s.parent))
            .key("run").value(std::uint64_t(s.run))
            .endObject();
        out << compactJson(w.str()) << "\n";
    }
}

std::string
compactJson(const std::string &json)
{
    // Drop the writer's indentation outside string literals (the
    // benchmark's strings hold no escaped quotes).
    std::string out;
    bool inString = false;
    for (char c : json) {
        if (c == '"')
            inString = !inString;
        if (inString || (c != '\n' && c != ' '))
            out += c;
    }
    return out;
}

Scope::Scope(Tracer *tracer, const std::string &name, unsigned run)
    : tracer(tracer), id(tracer ? tracer->begin(name, run) : -1)
{}

Scope::~Scope()
{
    if (tracer)
        tracer->end(id);
}

void
Checks::expect(bool ok, const std::string &what)
{
    ++attempted;
    if (ok)
        return;
    ++failed;
    if (failures.size() < 16)
        failures.push_back(what);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    auto rank = std::size_t(std::ceil(p / 100.0 * double(v.size())));
    return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

} // namespace perfbench
