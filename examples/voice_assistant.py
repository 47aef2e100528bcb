#!/usr/bin/env python3
"""The IoT voice assistant of section 6.5.1.

A scanner on an isolated Rocket tile watches room audio for the
trigger word; on each trigger it delegates a memory capability over
the audio window to the compressor, which Rice-compresses the samples
(the libFLAC stand-in) and ships them to the cloud via UDP.  The
pager demand-pages the compressor's buffers.

The experiment knob is placement: compressor + net + pager either
share one BOOM tile or get one each.  The paper measured 384 ms
isolated vs 398 ms shared (3.6% sharing overhead).

Run:  python examples/voice_assistant.py
"""

from repro.core.exps.voice import VoicePoint, run_voice_point


def main() -> None:
    print("running the voice-assistant pipeline twice "
          "(isolated, then shared placement)...\n")

    isolated = run_voice_point(VoicePoint(shared=False, rep=0, triggers=4))
    print(f"isolated placement: {isolated['ms']:8.1f} ms  "
          f"(compressor/net/pager on dedicated tiles)")
    print(f"  audio in:  {isolated['bytes_in']:7d} B, "
          f"compressed out: {isolated['bytes_out']:7d} B "
          f"(ratio {isolated['compression_ratio']:.2f}, lossless)")

    shared = run_voice_point(VoicePoint(shared=True, rep=0, triggers=4))
    print(f"shared placement:   {shared['ms']:8.1f} ms  "
          f"(all three multiplexed on one BOOM tile)")

    overhead = 100.0 * (shared["ms"] - isolated["ms"]) / isolated["ms"]
    print(f"\nsharing overhead: {overhead:.1f}%   (paper: 3.6%)")


if __name__ == "__main__":
    main()
