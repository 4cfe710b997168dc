"""Counter-mode encryption substrate.

The paper encrypts every cache line written back to PCM with counter-mode
AES: four AES engines turn ``(key, line address, per-line counter)`` into a
512-bit one-time pad that is XORed with the plaintext (Fig. 4).  The
repository reproduces that construction with
:class:`repro.crypto.counter_mode.CounterModeEngine`, which derives the
pads from a keyed BLAKE2b PRF instead of AES.

The important property for everything downstream is that ciphertext is
indistinguishable from uniform random data, which removes the 0/1 bias
that classical write-reduction encodings rely on.
"""

from repro.crypto.counter_mode import CounterModeEngine, EncryptedLine

__all__ = ["CounterModeEngine", "EncryptedLine"]
