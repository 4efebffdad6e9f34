// Crash post-mortem: async-signal-safe flight-recorder dumps.
//
// install() hooks SIGSEGV/SIGBUS/SIGFPE/SIGILL/SIGABRT/SIGTERM and
// std::terminate. When any of them fires, the handler serializes a
// post-mortem JSON document ("schema": "g5.postmortem.v1") into a
// static buffer with util::SigsafeWriter and write(2)s it to the
// configured path, then restores the default disposition and re-raises
// so the process still dies with the original signal (exit status,
// core dumps and CI signal reporting stay truthful).
//
// What the dump contains — all read lock-free from structures designed
// for it:
//   * the flight recorder's last step records and span events;
//   * every named thread's live span path (where each thread was);
//   * device state (board count, per-board JMEM fill) via gauge
//     pointers cached OFF the signal path;
//   * RSS from /proc/self/statm;
//   * a registry metrics section pre-serialized by the telemetry
//     sampler (refresh()); null if no sampler ever ran.
//
// Signal-handler constraints honored: no malloc, no stdio, no locks.
// Everything the handler touches is a static buffer, a relaxed atomic
// or a syscall from the async-signal-safe list.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

namespace g5::obs::crash {

/// Install the handlers and the std::terminate hook, dumping to `path`
/// on abnormal exit. Idempotent; a later call just updates the path.
void install(const std::string& path);

[[nodiscard]] bool installed() noexcept;

/// Refresh the cached state the handler reads: device gauge pointers
/// (resolved via Registry::find_gauge — never creating entries) and the
/// pre-serialized registry JSON section. Called by obs::Telemetry every
/// sampling tick; call manually when running without a sampler.
void refresh();

/// Serialize and write a post-mortem right now, with cause
/// {"kind":"manual","name":`cause`}. Returns bytes written (0 on
/// failure). Unlike the signal path this may be called repeatedly.
std::size_t write_postmortem_now(std::string_view cause);

}  // namespace g5::obs::crash
