"""Fixture: four imports this module never uses."""

import json
import os.path
from collections import OrderedDict as Ordered
from typing import Dict, List

SIZES: Dict[str, int] = {}
