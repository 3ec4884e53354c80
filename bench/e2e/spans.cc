#include "spans.hh"

#include <cstring>
#include <fstream>
#include <iomanip>

namespace e2e {

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), epoch_(std::chrono::steady_clock::now())
{}

double
SpanRecorder::now() const
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

SpanRecorder::Scope::Scope(SpanRecorder &recorder, const char *name,
                           uint64_t request)
{
    if (!recorder.enabled_)
        return;
    recorder_ = &recorder;
    index_ = static_cast<int64_t>(recorder.spans_.size());
    recorder.spans_.push_back(
        Span{name, recorder.now(), 0.0, recorder.open_, request});
    recorder.open_ = index_;
}

SpanRecorder::Scope::~Scope()
{
    if (!recorder_)
        return;
    Span &span = recorder_->spans_[static_cast<size_t>(index_)];
    span.end = recorder_->now();
    recorder_->open_ = span.parent;
}

std::vector<double>
SpanRecorder::childTime() const
{
    // Children of one span run one after another on the recording
    // thread, so their summed durations are the time they cover.
    std::vector<double> covered(spans_.size(), 0.0);
    for (const Span &span : spans_)
        if (span.parent >= 0)
            covered[static_cast<size_t>(span.parent)] += span.duration();
    return covered;
}

std::map<std::string, SpanTotals>
SpanRecorder::foldByName() const
{
    const std::vector<double> covered = childTime();
    std::map<std::string, SpanTotals> fold;
    for (size_t i = 0; i < spans_.size(); ++i) {
        SpanTotals &t = fold[spans_[i].name];
        t.total += spans_[i].duration();
        t.self += spans_[i].duration() - covered[i];
        t.count++;
    }
    return fold;
}

std::map<std::string, SpanTotals>
SpanRecorder::foldByLayer() const
{
    std::map<std::string, SpanTotals> layers;
    for (const auto &[name, t] : foldByName()) {
        SpanTotals &l = layers[name.substr(0, name.find('.'))];
        l.total += t.total;
        l.self += t.self;
        l.count += t.count;
    }
    return layers;
}

double
SpanRecorder::coverage(const char *root) const
{
    const std::vector<double> covered = childTime();
    double total = 0.0;
    double attributed = 0.0;
    for (size_t i = 0; i < spans_.size(); ++i) {
        if (std::strcmp(spans_[i].name, root) != 0)
            continue;
        total += spans_[i].duration();
        attributed += covered[i];
    }
    return total > 0.0 ? attributed / total : 0.0;
}

bool
SpanRecorder::writeChromeTrace(const std::string &path) const
{
    std::ofstream os(path);
    os << std::fixed << std::setprecision(3);
    os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        const std::string name = s.name;
        os << (i ? ",\n" : "\n") << "{\"name\": \"" << name
           << "\", \"cat\": \"" << name.substr(0, name.find('.'))
           << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
           << s.start * 1e6 << ", \"dur\": " << s.duration() * 1e6
           << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
           << ", \"request\": " << s.request << "}}";
    }
    os << "\n]}\n";
    return static_cast<bool>(os.flush());
}

} // namespace e2e
