#include "harness/tracer.h"

#include <cstdio>

namespace perfbench {

Tracer::Scope::Scope(Tracer* tracer, const char* name, uint64_t request,
                     uint64_t parent)
    : tracer_(tracer != nullptr && tracer->active() ? tracer : nullptr) {
  if (tracer_ == nullptr) return;
  span_.request = request;
  span_.id = tracer_->next_span_.fetch_add(1);
  span_.parent = parent;
  span_.name = name;
  span_.start_ns = NowNs();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  span_.end_ns = NowNs();
  std::lock_guard<std::mutex> lock(tracer_->mu_);
  tracer_->spans_.push_back(span_);
}

jpar::Status Tracer::WriteJsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return jpar::Status::IOError("cannot write " + path);
  for (const Span& s : spans_) {
    std::fprintf(out,
                 "{\"request\":%llu,\"id\":%llu,\"parent\":%llu,"
                 "\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 static_cast<unsigned long long>(s.request),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  const bool ok = std::fclose(out) == 0;
  return ok ? jpar::Status::OK()
            : jpar::Status::IOError("cannot write " + path);
}

}  // namespace perfbench
