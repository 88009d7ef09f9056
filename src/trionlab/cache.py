"""Content-addressed JSON result cache for the CLI."""
import contextlib
import hashlib
import json
import os
import pathlib
import sys


def source_digest(names=None):
    """sha256 of the named package files (names and bytes), or all *.py."""
    here, digest = pathlib.Path(__file__).parent, hashlib.sha256()
    for name in names or sorted(p.name for p in here.glob("*.py")):
        digest.update(name.encode() + b"\0" + (here / name).read_bytes())
    return digest.hexdigest()


def config_key(config):
    """Stable hash of a JSON-serializable config mapping and of the source
    digest, so that results of older numerics are never read back."""
    blob = json.dumps({"config": config, "source": source_digest()},
                      sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


class ResultCache:
    """Directory of <key>.json records; corrupt entries are recomputed."""

    def __init__(self, directory):
        self.directory = directory
        if directory:
            try:
                os.makedirs(directory, exist_ok=True)
            except OSError as exc:
                raise ValueError(f"unusable cache directory: {exc}") from None

    @classmethod
    def from_environment(cls, flag_dir=None, disabled=False):
        if disabled:
            return cls(None)
        return cls(flag_dir or os.environ.get("TRIONLAB_CACHE"))

    def _path(self, key):
        return os.path.join(self.directory, key + ".json")

    def get(self, key):
        if not self.directory:
            return None
        path = self._path(key)
        if not os.path.exists(path):
            return None
        try:
            with open(path) as fh:
                record = json.load(fh)
            if not (isinstance(record, dict) and record.get("key") == key):
                raise ValueError("not a record of this key")
            payload = record.get("payload")
            if not (isinstance(payload, dict)
                    and isinstance(payload.get("metadata"), dict)
                    and isinstance(payload.get("rows"), list)
                    and all(isinstance(row, dict) for row in payload["rows"])):
                raise ValueError("payload lacks metadata or rows")
            return payload
        except (ValueError, OSError) as exc:
            print(f"warning: ignoring corrupt cache entry {path}: {exc}",
                  file=sys.stderr)
            return None

    def put(self, key, payload):
        """Write via a temp file of this writer's own; a failure only warns."""
        if not self.directory:
            return
        import tempfile   # off the import path of a cache hit
        tmp = None
        try:
            fd, tmp = tempfile.mkstemp(".tmp", key + ".", self.directory)
            with os.fdopen(fd, "w") as fh:
                json.dump({"key": key, "payload": payload}, fh)
            os.replace(tmp, self._path(key))
        except OSError as exc:
            print(f"warning: result not cached: {exc}", file=sys.stderr)
            if tmp is not None:
                with contextlib.suppress(OSError):
                    os.remove(tmp)
