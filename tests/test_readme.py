"""The README's example config is the documented schema: it loads, validates and
sets every key of ``config.KEYS`` but the data-source paths and the stale ``workers``."""

import configparser
import re
from pathlib import Path

from enose.config import KEYS, load_config

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_config(tmp_path) -> Path:
    blocks = re.findall(r"^```ini\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    path = tmp_path / "readme.ini"
    path.write_text(blocks[0])
    return path


def test_readme_config_loads_and_validates(tmp_path):
    load_config(str(readme_config(tmp_path))).validate()


def test_readme_config_sets_every_key(tmp_path):
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(readme_config(tmp_path))
    documented = {(section, key) for section in parser.sections() for key in parser[section]}
    expected = {(section, key) for section, keys in KEYS.items() for key in keys
                if key not in ("manifest", "glob", "workers")}
    assert documented == expected
